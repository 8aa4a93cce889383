package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/obs"
)

// drainBudget verifies every shared-budget token is back in the pool — the
// invariant a cancelled evaluation must not break — by acquiring them all
// and putting them back.
func drainBudget(t *testing.T) {
	t.Helper()
	b := SharedBudget()
	want := b.Limit() - 1
	// Tokens are returned after wg.Wait but the caller may observe us
	// before a racing test goroutine settles; retry briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := b.TryAcquire(want)
		b.Release(got)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget leak: only %d of %d tokens recoverable", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForEachCtxCancelVisitsPrefixOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1000
	var hits [n]atomic.Int32
	var once sync.Once
	ran := ForEachCtx(ctx, n, 4, func(i int) {
		hits[i].Add(1)
		if i >= 10 {
			once.Do(cancel)
		}
	})
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
	if ran == 0 || ran == n {
		t.Fatalf("ran %d of %d indices; cancellation should stop mid-range", ran, n)
	}
	// The indices that ran are exactly the prefix [0, ran).
	for i := range hits {
		want := int32(0)
		if i < ran {
			want = 1
		}
		if got := hits[i].Load(); got != want {
			t.Fatalf("index %d ran %d times, want %d (prefix of %d)", i, got, want, ran)
		}
	}
	drainBudget(t)
}

// TestEvaluateAllCtxPartialResults: a run cancelled mid-suite still gives
// every job exactly one result, releases every budget slot, and leaves no
// goroutine behind.
func TestEvaluateAllCtxPartialResults(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := Range(1, 4)
	const n = 64
	jobs := make([]Job, n)
	var evaluated atomic.Int64
	for i := range jobs {
		name := fmt.Sprintf("job-%03d", i)
		jobs[i] = Job{
			Name: name,
			BuildCtx: func(context.Context) (Model, error) {
				if evaluated.Add(1) == 5 {
					cancel()
				}
				return testModel(name, 100, 1), nil
			},
			Workers: workers,
		}
	}
	results := evaluateAll(ctx, jobs, 4)
	if len(results) != n {
		t.Fatalf("%d results for %d jobs", len(results), n)
	}
	ok, cancelled := 0, 0
	for i, res := range results {
		switch {
		case res.Err == nil:
			if len(res.Curve.Points) != 4 {
				t.Fatalf("job %d: incomplete curve", i)
			}
			ok++
		case res.IsCancelled():
			if res.Name != jobs[i].Name {
				t.Fatalf("cancelled result %d lost its name: %q", i, res.Name)
			}
			cancelled++
		default:
			t.Fatalf("job %d: unexpected error %v", i, res.Err)
		}
	}
	if ok == 0 || cancelled == 0 {
		t.Fatalf("ok=%d cancelled=%d; a mid-run cancel should split the suite", ok, cancelled)
	}
	drainBudget(t)

	// No worker may outlive the call, cancelled or not.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestCancelledEvaluationEndsAllSpans: span recording under cancellation
// must leave no span open — every cell/build/sample span begun before the
// cancel ends inside the recover path, so a deadlined run still produces a
// well-formed trace instead of leaking half-open spans.
func TestCancelledEvaluationEndsAllSpans(t *testing.T) {
	buf := obs.NewTraceBuffer(0)
	obs.SetRecorder(buf)
	defer obs.SetRecorder(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := Range(1, 4)
	const n = 32
	jobs := make([]Job, n)
	var evaluated atomic.Int64
	for i := range jobs {
		name := fmt.Sprintf("span-job-%03d", i)
		jobs[i] = Job{
			Name: name,
			BuildCtx: func(context.Context) (Model, error) {
				if evaluated.Add(1) == 4 {
					cancel()
				}
				return testModel(name, 100, 1), nil
			},
			Workers: workers,
		}
	}
	results := evaluateAll(ctx, jobs, 4)
	if len(results) != n {
		t.Fatalf("%d results for %d jobs", len(results), n)
	}
	obs.SetRecorder(nil)

	if open := buf.Open(); open != 0 {
		t.Fatalf("%d spans still open after a cancelled evaluation (begun %d, ended %d)",
			open, buf.Begun(), buf.Ended())
	}
	if buf.Ended() == 0 {
		t.Fatal("no spans recorded at all; the recorder was not engaged")
	}
	for _, s := range buf.Spans() {
		if s.EndTime().Before(s.StartTime()) {
			t.Fatalf("span %q ends before it starts", s.Name())
		}
		switch s.Name() {
		case "cell", "build", "sample", "kernel", "mc-shard":
		default:
			t.Fatalf("unexpected span name %q", s.Name())
		}
	}
	drainBudget(t)
}
