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

func TestEvaluateAllCtxPartialResults(t *testing.T) {
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
}

// TestEvaluateStreamCtxCancelMidStream is the satellite's core guarantee:
// a stream cancelled mid-iteration still emits every yielded index exactly
// once, releases every budget slot, and leaves no goroutine behind.
func TestEvaluateStreamCtxCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 128
	workers := Range(1, 4)
	idx := 0
	next := func() (StreamJob, bool) {
		if idx >= n {
			return StreamJob{}, false
		}
		i := idx
		idx++
		name := fmt.Sprintf("cell-%03d", i)
		return StreamJob{Index: i, Job: Job{
			Name:     name,
			BuildCtx: func(context.Context) (Model, error) { return testModel(name, 100, 1), nil },
			Workers:  workers,
		}}, true
	}
	var mu sync.Mutex
	emitted := make(map[int]int, n)
	cancelledRes := 0
	emits := 0
	err := EvaluateStreamCtx(ctx, next, 4, func(i int, res JobResult) {
		mu.Lock()
		defer mu.Unlock()
		emitted[i]++
		emits++
		if emits == 5 {
			cancel()
		}
		if res.IsCancelled() {
			cancelledRes++
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("index %d: cancelled result should wrap context.Canceled: %v", i, res.Err)
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d distinct indices, want all %d (cancellation must drain, not drop)", len(emitted), n)
	}
	for i, c := range emitted {
		if c != 1 {
			t.Fatalf("index %d emitted %d times", i, c)
		}
	}
	if cancelledRes == 0 {
		t.Fatal("no cancelled results despite mid-stream cancel")
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

// TestEvaluateStreamCtxCancelledWaiterAndRepresentative: a duplicate waiting
// on an in-flight representative abandons the wait on cancel, while the
// representative still publishes — no stranded single-flight entry.
func TestEvaluateStreamCtxCancelledWaiter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	workers := Range(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	jobs := []StreamJob{
		{Index: 0, Job: Job{Name: "rep", Key: "K", Workers: workers, BuildCtx: func(context.Context) (Model, error) {
			startOnce.Do(func() { close(started) })
			<-release
			return testModel("rep", 100, 1), nil
		}}},
		{Index: 1, Job: Job{Name: "dup", Key: "K", Workers: workers, BuildCtx: func(context.Context) (Model, error) {
			return testModel("dup", 100, 1), nil
		}}},
	}
	idx := 0
	next := func() (StreamJob, bool) {
		if idx >= len(jobs) {
			return StreamJob{}, false
		}
		j := jobs[idx]
		idx++
		return j, true
	}
	go func() {
		<-started // the representative is in flight, the dup is (or will be) waiting
		time.Sleep(20 * time.Millisecond)
		cancel()
		time.Sleep(20 * time.Millisecond)
		close(release) // representative finishes after the cancellation
	}()
	var mu sync.Mutex
	results := make(map[int]JobResult, 2)
	EvaluateStreamCtx(ctx, next, 2, func(i int, res JobResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
	})
	if len(results) != 2 {
		t.Fatalf("emitted %d results, want 2", len(results))
	}
	// The representative was in flight when ctx fired: its evaluation ran to
	// completion on its worker, so its own result is the real curve.
	if rep := results[0]; rep.Err != nil {
		t.Fatalf("in-flight representative should have completed: %v", rep.Err)
	}
	// The duplicate either abandoned the wait (cancelled) or coalesced if
	// scheduling let it observe the published slot; both are legal, but it
	// must not hang and must not carry a foreign name.
	dup := results[1]
	if dup.Name != "dup" {
		t.Fatalf("dup result carries name %q", dup.Name)
	}
	if dup.Err != nil && !dup.IsCancelled() {
		t.Fatalf("dup should be cancelled or deduped, got %v", dup.Err)
	}
	drainBudget(t)
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
		case "cell", "build", "sample", "dedup", "kernel", "mc-shard":
		default:
			t.Fatalf("unexpected span name %q", s.Name())
		}
	}
	drainBudget(t)
}
