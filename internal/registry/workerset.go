package registry

import (
	"context"
	"sort"
)

// The kernel worker-set hint: how the evaluation spine tells model
// construction which worker counts the curve will sample, so the first
// Monte-Carlo cache miss batch-fills the whole set in one
// common-random-numbers RNG pass (partition.MonteCarloMaxEdgesBatch)
// instead of paying one full pass per curve point. The hint is carried on
// the context because it is exactly scoped like the evaluation context the
// models already capture — scenario.ModelCtx sets it from the scenario's
// worker axis, and every layer between (families, graphModel) forwards ctx
// untouched.
//
// The hint is a pure performance annotation: estimates are bit-identical
// with or without it (common random numbers make every estimate a function
// of its own coordinates only), so a caller that never sets it — direct
// GraphInferenceModelCtx users, tests — just computes kernels one at a time.

// kernelWorkersCtxKey is the context key for the hint.
type kernelWorkersCtxKey struct{}

// WithKernelWorkerSet annotates ctx with the full set of worker counts a
// model built under it will be sampled at. The set is normalized (sorted,
// deduplicated, non-positive counts dropped); an empty result leaves ctx
// unchanged.
func WithKernelWorkerSet(ctx context.Context, workers []int) context.Context {
	ws := make([]int, 0, len(workers))
	for _, w := range workers {
		if w >= 1 {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return ctx
	}
	sort.Ints(ws)
	n := 1
	for i := 1; i < len(ws); i++ {
		if ws[i] != ws[n-1] {
			ws[n] = ws[i]
			n++
		}
	}
	return context.WithValue(ctx, kernelWorkersCtxKey{}, ws[:n])
}

// KernelWorkerSet returns the worker-set hint carried by ctx, or nil. The
// returned slice is shared; callers must not mutate it.
func KernelWorkerSet(ctx context.Context) []int {
	ws, _ := ctx.Value(kernelWorkersCtxKey{}).([]int)
	return ws
}
