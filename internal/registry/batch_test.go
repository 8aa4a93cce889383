package registry

import (
	"context"
	"sort"
	"sync"
	"testing"

	"dmlscale/internal/core"
)

func batchTestDegrees() []int32 {
	degrees := make([]int32, 2000)
	for i := range degrees {
		degrees[i] = int32(1 + (i*i)%9)
	}
	return degrees
}

// TestGraphInferenceModelBatchedMatchesSingle: a model built on a worker
// axis prices every point bit-identically to one built without it — common
// random numbers make each estimate a function of its own coordinates only
// — while paying one batched kernel pass instead of one pass per point.
func TestGraphInferenceModelBatchedMatchesSingle(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := batchTestDegrees()
	workers := core.Range(1, 16)

	ctx := WithKernelAxis(context.Background(), len(workers))
	batched, err := GraphInferenceModelCtx(ctx, "batched", degrees, 2, 1e9, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	batchedTimes := make([]float64, len(workers))
	for i, n := range workers {
		batchedTimes[i] = float64(batched.Time(n))
	}
	st := SnapshotCaches()
	if st.KernelBatches != 1 || st.KernelBatchKeys != int64(len(workers)) || st.KernelSingles != 0 {
		t.Errorf("batched pass stats = %d batches / %d keys / %d singles, want 1 / %d / 0",
			st.KernelBatches, st.KernelBatchKeys, st.KernelSingles, len(workers))
	}
	if st.Estimates.Misses != int64(len(workers)) {
		t.Errorf("batched pass misses = %d, want %d (one per key)", st.Estimates.Misses, len(workers))
	}

	ResetCaches()
	single, err := GraphInferenceModelCtx(context.Background(), "single", degrees, 2, 1e9, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range workers {
		if got := float64(single.Time(n)); got != batchedTimes[i] {
			t.Errorf("n=%d: single %v != batched %v", n, got, batchedTimes[i])
		}
	}
	if st := SnapshotCaches(); st.KernelSingles != int64(len(workers)) || st.KernelBatches != 0 {
		t.Errorf("single pass stats = %d singles / %d batches, want %d / 0",
			st.KernelSingles, st.KernelBatches, len(workers))
	}

	// A point past the axis falls back to the single path.
	ResetCaches()
	outside, err := GraphInferenceModelCtx(WithKernelAxis(context.Background(), 2), "outside", degrees, 2, 1e9, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	_ = outside.Time(5)
	if st := SnapshotCaches(); st.KernelSingles != 1 || st.KernelBatches != 0 {
		t.Errorf("out-of-set point: %d singles / %d batches, want 1 / 0", st.KernelSingles, st.KernelBatches)
	}
}

// TestBatchFillObservesPerKey: the kernel observer sees one call per
// estimate key — never one per batch — with the full coordinates, so a
// checkpoint journal can replay a batch-filled run key by key through
// SeedEstimate and make the resumed batch fully warm.
func TestBatchFillObservesPerKey(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := batchTestDegrees()
	workers := core.Range(1, 8)

	var mu sync.Mutex
	type obsRec struct {
		call  KernelCall
		value float64
	}
	var seen []obsRec
	SetKernelObserver(func(call KernelCall, value float64) {
		mu.Lock()
		seen = append(seen, obsRec{call, value})
		mu.Unlock()
	})
	defer SetKernelObserver(nil)

	ctx := WithKernelAxis(context.Background(), len(workers))
	model, err := GraphInferenceModelCtx(ctx, "observed", degrees, 2, 1e9, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = model.Time(3) // one sampled point fills the whole axis

	if len(seen) != len(workers) {
		t.Fatalf("observer saw %d calls, want %d (one per key)", len(seen), len(workers))
	}
	sort.Slice(seen, func(a, b int) bool { return seen[a].call.Workers < seen[b].call.Workers })
	for i, rec := range seen {
		if rec.call.Workers != workers[i] {
			t.Errorf("observed workers %d, want %d", rec.call.Workers, workers[i])
		}
		if rec.call.Vertices != len(degrees) || rec.call.Trials != 3 || rec.call.Seed != 7 {
			t.Errorf("observed call %+v missing coordinates", rec.call)
		}
	}

	// Replay through SeedEstimate: the batch finds everything cached, so
	// nothing recomputes and nothing re-observes.
	ResetCaches()
	for _, rec := range seen {
		SeedEstimate(rec.call, rec.value)
	}
	observed := len(seen)
	replayed, err := GraphInferenceModelCtx(ctx, "replayed", degrees, 2, 1e9, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(replayed.Time(3)), float64(model.Time(3)); got != want {
		t.Errorf("replayed Time(3) = %v, want %v", got, want)
	}
	if len(seen) != observed {
		t.Errorf("replayed batch re-observed %d kernels", len(seen)-observed)
	}
	if st := SnapshotCaches(); st.KernelBatches != 0 || st.KernelSingles != 0 {
		t.Errorf("replayed batch recomputed: %d batches, %d singles", st.KernelBatches, st.KernelSingles)
	}
}
