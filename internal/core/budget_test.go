package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"dmlscale/internal/units"
)

func TestBudgetLimitAndTokens(t *testing.T) {
	b := NewBudget(4)
	if b.Limit() != 4 {
		t.Fatalf("limit = %d, want 4", b.Limit())
	}
	// The caller counts as one worker, so only limit−1 tokens exist.
	if got := b.TryAcquire(10); got != 3 {
		t.Errorf("TryAcquire(10) = %d, want 3", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Errorf("TryAcquire on a dry pool = %d, want 0", got)
	}
	b.Release(3)
	if got := b.TryAcquire(2); got != 2 {
		t.Errorf("TryAcquire(2) after release = %d, want 2", got)
	}
	b.Release(2)

	if NewBudget(0).Limit() < 1 {
		t.Error("default budget has no workers")
	}
	if got := NewBudget(1).TryAcquire(5); got != 0 {
		t.Errorf("serial budget granted %d tokens", got)
	}
}

func TestParallelChunksCoversEveryIndexOnce(t *testing.T) {
	b := NewBudget(4)
	for _, n := range []int{0, 1, 2, 3, 7, 100} {
		hits := make([]int32, n)
		b.ParallelChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestParallelChunksBoundsWorkers(t *testing.T) {
	b := NewBudget(3)
	var active, peak atomic.Int32
	b.ParallelChunks(64, func(lo, hi int) {
		now := active.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		active.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("%d chunks ran at once, budget is 3", p)
	}
	// Tokens are returned: a second run still gets extra workers.
	if got := b.TryAcquire(2); got != 2 {
		t.Errorf("tokens not returned after ParallelChunks: got %d", got)
	}
	b.Release(2)
}

func TestParallelChunksNestedDoesNotDeadlock(t *testing.T) {
	b := NewBudget(2)
	var total atomic.Int32
	b.ParallelChunks(4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Inner level finds a dry (or nearly dry) pool and runs on the
			// caller's goroutine.
			b.ParallelChunks(8, func(ilo, ihi int) {
				total.Add(int32(ihi - ilo))
			})
		}
	})
	if total.Load() != 32 {
		t.Errorf("nested chunks covered %d of 32 indexes", total.Load())
	}
}

func TestParallelChunksRepanicsWithoutLeakingTokens(t *testing.T) {
	b := NewBudget(4)
	caught := func() (r any) {
		defer func() { r = recover() }()
		// Panic from a spawned chunk, not just the caller's own: with 3
		// extra tokens and 8 indexes, index 7 runs on a spawned goroutine.
		b.ParallelChunks(8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 7 {
					panic("chunk boom")
				}
			}
		})
		return nil
	}()
	if caught != "chunk boom" {
		t.Fatalf("panic not re-raised on the caller: got %v", caught)
	}
	// Every token is back in the pool.
	if got := b.TryAcquire(4); got != 3 {
		t.Errorf("pool holds %d tokens after panic, want 3", got)
	}
	b.Release(3)
}

func TestEvaluateAllIsolatesPanicsInsideCurveSampling(t *testing.T) {
	// The panic fires inside Time(n) during parallel curve sampling — the
	// path that crosses ParallelChunks goroutines — and must still become
	// a per-job error instead of killing the process.
	jobs := []Job{
		{Name: "ok", BuildCtx: func(context.Context) (Model, error) { return testModel("ok", 10, 1), nil }, Workers: Range(1, 8)},
		{Name: "mid-curve panic", BuildCtx: func(context.Context) (Model, error) {
			m := testModel("mid-curve panic", 10, 1)
			m.Computation = func(n int) units.Seconds {
				if n == 5 {
					panic("time boom")
				}
				return units.Seconds(1)
			}
			return m, nil
		}, Workers: Range(1, 8)},
	}
	results := evaluateAll(context.Background(), jobs, 0)
	if results[0].Err != nil {
		t.Fatalf("healthy job failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("mid-curve panic not isolated: %v", results[1].Err)
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(1)", Parallelism())
	}
	if got := SharedBudget().TryAcquire(4); got != 0 {
		t.Errorf("serial shared budget granted %d tokens", got)
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Errorf("default Parallelism() = %d", Parallelism())
	}
}
