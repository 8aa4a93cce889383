package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dmlscale/internal/units"
)

// streamFrom adapts a job slice to the pull interface, counting pulls.
func streamFrom(jobs []Job, pulls *int) func() (StreamJob, bool) {
	i := 0
	return func() (StreamJob, bool) {
		if pulls != nil {
			*pulls++
		}
		if i >= len(jobs) {
			return StreamJob{}, false
		}
		sj := StreamJob{Index: i, Job: jobs[i]}
		i++
		return sj, true
	}
}

// evaluateAll is the slice view of EvaluateStreamCtx: one result per job, in
// job order.
func evaluateAll(ctx context.Context, jobs []Job, parallelism int) []JobResult {
	out := make([]JobResult, len(jobs))
	var mu sync.Mutex
	EvaluateStreamCtx(ctx, streamFrom(jobs, nil), parallelism, func(i int, res JobResult) {
		mu.Lock()
		defer mu.Unlock()
		out[i] = res
	})
	return out
}

func testJob(name string, t float64) Job {
	return Job{
		Name:     name,
		BuildCtx: func(context.Context) (Model, error) { return Model{Computation: constTime(t)}, nil },
		Workers:  Range(1, 4),
	}
}

func constTime(t float64) TimeFunc {
	return func(n int) units.Seconds { return units.Seconds(t / float64(n)) }
}

// TestEvaluateStreamMatchesEvaluateAll is the bit-identity check behind the
// streaming suite path: the same results, dedup flags and errors as a serial
// pass, at any parallelism.
func TestEvaluateStreamMatchesEvaluateAll(t *testing.T) {
	jobs := []Job{
		testJob("a", 8),
		{Name: "b1", BuildCtx: func(context.Context) (Model, error) { return Model{Computation: constTime(4)}, nil }, Workers: Range(1, 4), Key: "k1"},
		{Name: "b2", BuildCtx: func(context.Context) (Model, error) { return Model{Computation: constTime(4)}, nil }, Workers: Range(1, 4), Key: "k1"},
		{Name: "fail1", BuildCtx: func(context.Context) (Model, error) { return Model{}, errors.New("no model") }, Workers: Range(1, 2), Key: "k2"},
		{Name: "fail2", BuildCtx: func(context.Context) (Model, error) { return Model{}, errors.New("no model") }, Workers: Range(1, 2), Key: "k2"},
		testJob("c", 2),
	}
	want := evaluateAll(context.Background(), jobs, 1)
	for _, parallel := range []int{1, 0, runtime.GOMAXPROCS(0)} {
		got := evaluateAll(context.Background(), jobs, parallel)
		if len(got) != len(want) {
			t.Fatalf("parallel=%d: %d results, want %d", parallel, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Name != w.Name || g.Deduped != w.Deduped || (g.Err == nil) != (w.Err == nil) {
				t.Errorf("parallel=%d: result %d = {%s dedup=%v err=%v}, want {%s dedup=%v err=%v}",
					parallel, i, g.Name, g.Deduped, g.Err, w.Name, w.Deduped, w.Err)
			}
			if w.Err != nil {
				if g.Err.Error() != w.Err.Error() {
					t.Errorf("parallel=%d: result %d error %q, want %q", parallel, i, g.Err, w.Err)
				}
				continue
			}
			if len(g.Curve.Points) != len(w.Curve.Points) {
				t.Fatalf("parallel=%d: result %d has %d points, want %d", parallel, i, len(g.Curve.Points), len(w.Curve.Points))
			}
			for j := range w.Curve.Points {
				if g.Curve.Points[j] != w.Curve.Points[j] {
					t.Errorf("parallel=%d: result %d point %d = %+v, want %+v",
						parallel, i, j, g.Curve.Points[j], w.Curve.Points[j])
				}
			}
		}
	}
}

// TestEvaluateStreamDedupsOnce asserts the single-flight property: one
// evaluation per distinct key no matter how many duplicates or workers.
func TestEvaluateStreamDedupsOnce(t *testing.T) {
	var builds atomic.Int32
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("cell-%d", i),
			BuildCtx: func(context.Context) (Model, error) {
				builds.Add(1)
				return Model{Computation: constTime(6)}, nil
			},
			Workers: Range(1, 8),
			Key:     fmt.Sprintf("key-%d", i%4),
		}
	}
	results := evaluateAll(context.Background(), jobs, 0)
	if got := builds.Load(); got != 4 {
		t.Errorf("built %d models for 4 distinct keys", got)
	}
	deduped := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
		if res.Name != jobs[i].Name {
			t.Errorf("result %d relabeled %q, want %q", i, res.Name, jobs[i].Name)
		}
		if res.Deduped {
			deduped++
		}
	}
	if deduped != len(jobs)-4 {
		t.Errorf("%d results deduped, want %d", deduped, len(jobs)-4)
	}
	// The stream pulls in order, so the representative of each key — the
	// non-deduped result — must be its first occurrence.
	for i := 0; i < 4; i++ {
		if results[i].Deduped {
			t.Errorf("first occurrence of key %d marked deduped", i)
		}
	}
}

func TestEvaluateStreamEmptyStream(t *testing.T) {
	calls := 0
	EvaluateStreamCtx(context.Background(), func() (StreamJob, bool) { return StreamJob{}, false }, 4, func(int, JobResult) { calls++ })
	if calls != 0 {
		t.Fatalf("emit called %d times on an empty stream", calls)
	}
}
