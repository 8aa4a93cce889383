package registry

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dmlscale/internal/memo"
)

// The registry owns every process-wide cache behind model construction,
// layered the way the data flows:
//
//	GraphSpec ──► degree sequence + fingerprint ──► Monte-Carlo maxᵢEᵢ estimate ──► curve
//
// Both are memo.Cache instances — bounded, single-flight, counted — so a
// sweep grid whose cells share a graph generates it once, and a grid
// that varies only communication-side axes (bandwidth, protocol, precision)
// prices every cell off the same computation kernel instead of resampling
// it per cell. SnapshotCaches exposes the counters; ResetCaches returns the
// whole stack to cold.
const (
	// maxGraphCacheEntries bounds the generated degree-sequence cache. Past
	// the bound the least recently used spec is evicted (and would
	// regenerate on its next use), so a long-lived service cycling through
	// many distinct graphs keeps its working set hot instead of pinning the
	// first 32 specs forever.
	maxGraphCacheEntries = 32

	// maxEstimateCacheEntries bounds the Monte-Carlo estimate cache. One
	// entry is a single float64, so the bound is generous: 4096 entries
	// cover 256 distinct (graph, trials, seed) kernels at 16 worker counts
	// each before anything is evicted.
	maxEstimateCacheEntries = 4096
)

// estimateKey identifies one Monte-Carlo maxᵢEᵢ computation: the degree
// sequence (by its 128-bit memo.HashInt32s fingerprint plus length, so
// serving one sequence's estimate for another would need a simultaneous
// collision in two independent hashes and the vertex count), the worker
// count, and the sampling parameters. Everything else the estimate could
// depend on is derived from these.
type estimateKey struct {
	fnv, mix uint64
	vertices int
	workers  int
	trials   int
	seed     int64
}

// call converts the cache key back to the observer/fault-injection surface
// — the inverse of the key SeedEstimate builds from a KernelCall, so the
// checkpoint journal round-trips batch-filled estimates one record per key.
func (k estimateKey) call() KernelCall {
	return KernelCall{
		Fingerprint: k.fnv,
		Mix:         k.mix,
		Vertices:    k.vertices,
		Workers:     k.workers,
		Trials:      k.trials,
		Seed:        k.seed,
	}
}

// degreeEntry is one generated degree sequence with its memo.HashInt32s
// fingerprint, computed once inside the single-flight generation, so a
// model built on a cached sequence keys its estimates without rehashing
// it.
type degreeEntry struct {
	degrees  []int32
	fnv, mix uint64
}

var (
	// degreeCache memoizes the degree sequence one GraphSpec generates.
	// Single-stripe: exact LRU, and the entries are few and expensive.
	degreeCache = memo.New[GraphSpec, degreeEntry](maxGraphCacheEntries, 1, nil)

	// estimateCache memoizes Monte-Carlo maxᵢEᵢ estimates process-wide, so
	// identical estimates are computed exactly once across all sweep cells,
	// suites and planner probes, whichever model instance asks first.
	// Single-stripe like the degree cache: a graph model asks it once per
	// worker axis and reads every curve point from its own snapshot.
	estimateCache = memo.New[estimateKey, float64](maxEstimateCacheEntries, 1, nil)
)

// CacheStats is a point-in-time snapshot of every process-wide registry
// cache, one memo.Stats per layer.
type CacheStats struct {
	// Degrees counts generated degree sequences (GraphDegreesCtx).
	Degrees memo.Stats
	// Estimates counts Monte-Carlo maxᵢEᵢ kernels (GraphInferenceModelCtx) —
	// the hot one: its misses are the number of distinct estimations
	// actually performed.
	Estimates memo.Stats
	// KernelBatches counts batched kernel passes (one common-random-numbers
	// RNG pass filling a whole worker axis), KernelBatchKeys the estimates
	// those passes filled, and KernelSingles the one-key computes — so
	// KernelBatchKeys + KernelSingles ≈ Estimates.Misses and the batched
	// share of kernel work is visible in -stats.
	KernelBatches   int64
	KernelBatchKeys int64
	KernelSingles   int64
}

// Report renders the snapshot as the "stats:" lines the CLIs print — one
// renderer, so the two CLIs (and the README examples) cannot drift apart.
func (s CacheStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats: kernel cache (Monte-Carlo estimates): %d hits, %d misses (%.1f%% hit ratio), %d evictions\n",
		s.Estimates.Hits, s.Estimates.Misses, 100*s.Estimates.HitRatio(), s.Estimates.Evictions)
	fmt.Fprintf(&b, "stats: kernel computes: %d batched passes filling %d estimates, %d single\n",
		s.KernelBatches, s.KernelBatchKeys, s.KernelSingles)
	fmt.Fprintf(&b, "stats: degree cache: %d hits / %d misses\n", s.Degrees.Hits, s.Degrees.Misses)
	return b.String()
}

// kernelObserver, when installed, sees every successfully computed
// Monte-Carlo kernel estimate (cache misses only — hits and seeded values
// re-observe nothing). The checkpoint layer installs one to journal
// estimates as they are earned; the fast path is a single atomic load.
var kernelObserver atomic.Pointer[func(KernelCall, float64)]

// SetKernelObserver installs fn as the process-wide kernel-compute
// observer (nil uninstalls). fn runs inside the estimate cache's
// single-flight compute, after the estimate succeeds, and must be safe
// for concurrent calls and fast — it sits on the kernel's critical path.
func SetKernelObserver(fn func(call KernelCall, value float64)) {
	if fn == nil {
		kernelObserver.Store(nil)
		return
	}
	kernelObserver.Store(&fn)
}

// observeKernel reports one computed estimate to the installed observer.
func observeKernel(call KernelCall, value float64) {
	if fp := kernelObserver.Load(); fp != nil {
		(*fp)(call, value)
	}
}

// SeedEstimate pre-populates the Monte-Carlo estimate cache with a value
// computed earlier — a checkpoint journal replaying kernels from a
// crashed run, so the resumed run prices its cells cache-warm instead of
// resampling. The call must carry the full coordinates (both fingerprint
// halves); a seed for an already-cached key is a no-op. Counted as one
// cache miss, matching the compute it replaced.
func SeedEstimate(call KernelCall, value float64) {
	key := estimateKey{
		fnv:      call.Fingerprint,
		mix:      call.Mix,
		vertices: call.Vertices,
		workers:  call.Workers,
		trials:   call.Trials,
		seed:     call.Seed,
	}
	estimateCache.Do(key, func() (float64, error) { return value, nil })
}

// kernelComputeNanos accumulates wall time spent actually computing
// Monte-Carlo kernels — cache misses only; hits and single-flight waits
// add nothing. Process-wide like the caches, zeroed by ResetCaches.
var kernelComputeNanos atomic.Int64

// kernelBatches/kernelBatchKeys/kernelSingles split kernel computes by
// shape for CacheStats: batched common-random-numbers passes (and how many
// estimate keys each filled) versus one-key computes. Process-wide, zeroed
// by ResetCaches.
var (
	kernelBatches   atomic.Int64
	kernelBatchKeys atomic.Int64
	kernelSingles   atomic.Int64
)

// KernelComputeTime returns the cumulative wall time spent computing
// Monte-Carlo kernels since process start (or the last ResetCaches), over
// every run in the process. A run's own share comes from WithKernelTime.
func KernelComputeTime() time.Duration {
	return time.Duration(kernelComputeNanos.Load())
}

// kernelTimeKey is the context key of a run's kernel-time total.
type kernelTimeKey struct{}

// WithKernelTime returns ctx carrying total, one run's kernel compute time
// in nanoseconds: every kernel fill of a model built under ctx adds its
// elapsed time to it, as well as to the process-wide KernelComputeTime.
// Concurrent runs in one process each count only the fills they computed;
// a run that waits on another run's fill, or hits the cache, adds nothing.
func WithKernelTime(ctx context.Context, total *atomic.Int64) context.Context {
	return context.WithValue(ctx, kernelTimeKey{}, total)
}

// addKernelTime adds one fill's elapsed time to the process-wide total and
// to the run's, when ctx carries one.
func addKernelTime(ctx context.Context, d time.Duration) {
	kernelComputeNanos.Add(int64(d))
	if total, ok := ctx.Value(kernelTimeKey{}).(*atomic.Int64); ok {
		total.Add(int64(d))
	}
}

// SnapshotCaches returns the current counters of the registry's caches.
// Counters accumulate until ResetCaches; snapshot before and after a run to
// attribute figures to it.
func SnapshotCaches() CacheStats {
	return CacheStats{
		Degrees:         degreeCache.Stats(),
		Estimates:       estimateCache.Stats(),
		KernelBatches:   kernelBatches.Load(),
		KernelBatchKeys: kernelBatchKeys.Load(),
		KernelSingles:   kernelSingles.Load(),
	}
}

// ResetCaches empties every process-wide cache — degree sequences and
// Monte-Carlo estimates — and zeroes their counters, so tests and
// benchmarks measure a fully cold state rather than a half-warm one.
// Evaluation never needs it.
func ResetCaches() {
	degreeCache.Reset()
	estimateCache.Reset()
	kernelComputeNanos.Store(0)
	kernelBatches.Store(0)
	kernelBatchKeys.Store(0)
	kernelSingles.Store(0)
}
