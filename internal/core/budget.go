package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a process-wide parallelism budget: a counting semaphore sized to
// a worker limit that every parallel layer draws from. Suite-level cell
// workers (ForEachCtx) and intra-curve shards (parallel curve sampling,
// Monte-Carlo trial sharding in package partition) acquire extra workers
// from the same pool, so nesting the two levels cannot oversubscribe the
// machine: a 10-curve suite on 8 cores spends the whole budget on curves and
// evaluates each one serially, while a single curve spends it on worker
// counts and trials.
//
// The caller of any parallel helper always counts as one worker, so a budget
// of limit n holds n−1 acquirable tokens. Acquisition never blocks: when the
// pool is dry the work simply runs on fewer goroutines (worst case, the
// caller's own), which keeps nested use deadlock-free.
type Budget struct {
	limit  int
	tokens chan struct{}
}

// NewBudget returns a budget for the given total worker limit; limit ≤ 0
// means GOMAXPROCS.
func NewBudget(limit int) *Budget {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	b := &Budget{limit: limit, tokens: make(chan struct{}, limit-1)}
	for i := 0; i < limit-1; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Limit returns the total worker limit, including the caller.
func (b *Budget) Limit() int {
	return b.limit
}

// TryAcquire grabs up to max extra-worker tokens without blocking and
// returns how many it got. Pair every granted token with a Release.
func (b *Budget) TryAcquire(max int) int {
	n := 0
	for n < max {
		select {
		case <-b.tokens:
			n++
		default:
			return n
		}
	}
	return n
}

// Release returns n tokens to the pool.
func (b *Budget) Release(n int) {
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// ParallelChunks splits [0, n) into one contiguous chunk per worker and runs
// body once per chunk, on the caller's goroutine plus as many extra workers
// as the budget grants. body must be safe to call concurrently for disjoint
// ranges; results indexed by position are deterministic at any parallelism.
// A panic in any chunk is re-raised on the caller (see spread).
func (b *Budget) ParallelChunks(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	b.spread(n, func(w, workers int) {
		body(n*w/workers, n*(w+1)/workers)
	})
}

// spread is the one fan-out every parallel helper shares. It grabs up to
// want−1 extra-worker tokens (want ≤ 0 means as many as the budget holds),
// then runs work(w, workers) for each w in [0, workers) — w = 0 on the
// caller's goroutine, the rest on spawned ones — where workers is the count
// actually granted. Tokens are held until every call returns. A panic in
// any call — even one running on a spawned goroutine — is re-raised on the
// caller after all settle and the tokens return to the pool, so callers'
// recover-based isolation (the evaluator's per-curve recovery) keeps working
// and the shared budget cannot leak.
func (b *Budget) spread(want int, work func(w, workers int)) {
	if want <= 0 {
		want = b.limit
	}
	extra := b.TryAcquire(want - 1)
	workers := extra + 1
	panics := make(chan any, 1)
	guarded := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				select {
				case panics <- r:
				default: // keep the first panic, drop the rest
				}
			}
		}()
		work(w, workers)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			guarded(w)
		}()
	}
	guarded(0)
	wg.Wait()
	b.Release(extra)
	select {
	case r := <-panics:
		panic(r)
	default:
	}
}

// shared is the process-wide budget every parallel path draws from by
// default.
var shared atomic.Pointer[Budget]

func init() {
	shared.Store(NewBudget(0))
}

// SetParallelism replaces the shared budget with one of the given total
// limit (≤ 0 means GOMAXPROCS) — the single knob behind the CLIs'
// -parallel flags. Call it before evaluation starts, not concurrently with
// it: helpers already holding the old budget keep using it.
func SetParallelism(limit int) {
	shared.Store(NewBudget(limit))
}

// Parallelism returns the shared budget's total worker limit.
func Parallelism() int {
	return shared.Load().Limit()
}

// SharedBudget returns the current shared budget.
func SharedBudget() *Budget {
	return shared.Load()
}

// ParallelChunks runs body over [0, n) on the shared budget; see
// Budget.ParallelChunks.
func ParallelChunks(n int, body func(lo, hi int)) {
	shared.Load().ParallelChunks(n, body)
}
