package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/units"
)

// evaluateAll is the suite evaluator's fan-out over a job slice: one result
// per job, in job order, with cancelled stubs past the prefix ForEachCtx ran.
func evaluateAll(ctx context.Context, jobs []Job, parallelism int) []JobResult {
	out := make([]JobResult, len(jobs))
	ran := ForEachCtx(ctx, len(jobs), parallelism, func(i int) {
		out[i] = EvaluateOne(ctx, jobs[i])
	})
	for i := ran; i < len(jobs); i++ {
		out[i] = CancelledResult(jobs[i].Name, ctx.Err())
	}
	return out
}

// testModel is a trivial c/n + a·n model.
func testModel(name string, c, a float64) Model {
	return Model{
		Name:          name,
		Computation:   func(n int) units.Seconds { return units.Seconds(c / float64(n)) },
		Communication: func(n int) units.Seconds { return units.Seconds(a * float64(n)) },
	}
}

func TestEvaluateAllMatchesSerialCurves(t *testing.T) {
	workers := Range(1, 16)
	jobs := make([]Job, 10)
	for i := range jobs {
		c := 100.0 + float64(i)
		name := string(rune('a' + i))
		jobs[i] = Job{
			Name:     name,
			BuildCtx: func(context.Context) (Model, error) { return testModel(name, c, 1), nil },
			Workers:  workers,
		}
	}
	got := evaluateAll(context.Background(), jobs, 4)
	if len(got) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(got), len(jobs))
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Name != jobs[i].Name {
			t.Errorf("result %d out of order: %q", i, res.Name)
		}
		c := 100.0 + float64(i)
		want, err := testModel(res.Name, c, 1).SpeedupCurve(workers)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range res.Curve.Points {
			if p != want.Points[j] {
				t.Errorf("job %d point %d: %+v != serial %+v", i, j, p, want.Points[j])
			}
		}
	}
}

func TestEvaluateAllIsolatesFailures(t *testing.T) {
	workers := Range(1, 8)
	boom := errors.New("boom")
	jobs := []Job{
		{Name: "ok-1", BuildCtx: func(context.Context) (Model, error) { return testModel("ok-1", 10, 1), nil }, Workers: workers},
		{Name: "build-error", BuildCtx: func(context.Context) (Model, error) { return Model{}, boom }, Workers: workers},
		{Name: "panics", BuildCtx: func(context.Context) (Model, error) { panic("kaboom") }, Workers: workers},
		{Name: "no-builder", Workers: workers},
		{Name: "bad-workers", BuildCtx: func(context.Context) (Model, error) { return testModel("bad-workers", 10, 1), nil }, Workers: []int{0}},
		{Name: "ok-2", BuildCtx: func(context.Context) (Model, error) { return testModel("ok-2", 10, 1), nil }, Workers: workers},
	}
	results := evaluateAll(context.Background(), jobs, 3)
	if results[0].Err != nil || results[5].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[5].Err)
	}
	if len(results[0].Curve.Points) != 8 || len(results[5].Curve.Points) != 8 {
		t.Error("healthy curves incomplete")
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("build error not propagated: %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "panicked") {
		t.Errorf("panic not captured: %v", results[2].Err)
	}
	if results[3].Err == nil || results[4].Err == nil {
		t.Errorf("invalid jobs accepted: %v / %v", results[3].Err, results[4].Err)
	}
}

func TestEvaluateAllBoundsParallelism(t *testing.T) {
	var active, peak atomic.Int32
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{
			Name: "j",
			BuildCtx: func(context.Context) (Model, error) {
				now := active.Add(1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				active.Add(-1)
				return testModel("j", 10, 1), nil
			},
			Workers: []int{1, 2},
		}
	}
	evaluateAll(context.Background(), jobs, 3)
	if p := peak.Load(); p > 3 {
		t.Errorf("pool ran %d jobs at once, bound is 3", p)
	}
	// Default parallelism runs them all too.
	results := evaluateAll(context.Background(), jobs, 0)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if len(evaluateAll(context.Background(), nil, 4)) != 0 {
		t.Error("nil jobs produced results")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, parallelism := range []int{1, 3, 0} {
		counts := make([]atomic.Int32, 100)
		if ran := ForEachCtx(context.Background(), len(counts), parallelism, func(i int) {
			counts[i].Add(1)
		}); ran != len(counts) {
			t.Fatalf("parallelism %d: ran %d of %d indices", parallelism, ran, len(counts))
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", parallelism, i, c)
			}
		}
	}
	ForEachCtx(context.Background(), 0, 4, func(int) { t.Error("body ran for n = 0") })
}

func TestForEachReRaisesPanics(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if recover() == nil {
			t.Error("panic not re-raised")
		}
		// The other workers keep draining indices after one panics.
		if ran.Load() == 0 {
			t.Error("no bodies ran")
		}
	}()
	ForEachCtx(context.Background(), 50, 4, func(i int) {
		if i == 3 {
			panic("boom")
		}
		ran.Add(1)
	})
}
