// Package memo is the module's shared memoization primitive: a bounded,
// mutex-striped, single-flight LRU cache with hit/miss/eviction counters.
//
// Every process-wide cache in the module — generated degree sequences and
// Monte-Carlo maxᵢEᵢ estimates — is an instance of Cache, so they share one
// eviction policy, one single-flight discipline and one observability
// surface (Stats) instead of each open-coding its own sync.Map-plus-Once
// hybrid.
//
// Concurrency model: a stripe's mutex is held only for map-and-recency-list
// work; the cached computation runs afterwards on the first caller's
// goroutine, publishing through the entry's done channel. Concurrent callers
// of one key therefore single-flight the (much more expensive) computation
// without serializing callers of other keys, and an entry evicted while
// another goroutine is still filling it stays valid for that goroutine — it
// just no longer serves future callers.
//
// Failure policy: only successful computations stay cached. A compute that
// returns an error, returns its caller's context error, or panics publishes
// that failure to the callers already coalesced on the entry — they were
// waiting for exactly that computation — and then drops the entry, so a
// later caller recomputes instead of reading a poisoned value. This is what
// lets a long-running service recover from transient faults (an injected
// panic, a cancelled computation) without a cache flush. Waiters are
// individually abandonable: DoCtx returns the waiter's own context error
// without disturbing the in-flight computation or its eventual caching.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a cache's counters. Hits count Do
// calls served by an existing entry (including entries still being filled
// by another goroutine — the caller waits on the single-flight instead of
// recomputing); misses count calls that inserted a fresh entry, i.e. the
// number of computations started since the last Reset; evictions count
// entries dropped past the capacity bound; drops count entries removed
// because their computation failed or panicked (each such key recomputes on
// its next use).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Drops     int64
	// Entries is the current number of cached keys.
	Entries int
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one single-flight slot: done closes when val/err publish. The
// first caller of the key owns the computation; everyone else waits on done
// (or their own context).
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// item is one recency-list element: the key (needed to unmap on eviction)
// and its entry.
type item[K comparable, V any] struct {
	key   K
	entry *entry[V]
}

// stripe is one independently locked shard of the cache: a bounded LRU of
// entries. Keys hash to exactly one stripe, so the per-stripe recency order
// is exact; the cache-wide order is approximate, which is the usual
// striping trade-off.
type stripe[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used; Values are *item
}

// Cache is a bounded, striped, single-flight LRU keyed by any comparable
// type. The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	hash    func(K) uint64
	mask    uint64
	stripes []stripe[K, V]

	hits, misses, evictions, drops atomic.Int64
}

// New returns a cache bounded to roughly capacity entries, sharded over up
// to the requested number of stripes (rounded down to a power of two, never
// more than capacity). hash routes keys to stripes and may be nil only when
// stripes is 1 — a single-stripe cache is an exact LRU, the right choice
// when entries are few and expensive (generated graphs); striped caches
// trade exact cache-wide recency for uncontended access, the right choice
// for many small hot entries (Monte-Carlo estimates).
func New[K comparable, V any](capacity, stripes int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		panic(fmt.Sprintf("memo: capacity %d < 1", capacity))
	}
	n := 1
	for n*2 <= stripes && n*2 <= capacity {
		n *= 2
	}
	if n > 1 && hash == nil {
		panic("memo: striped cache needs a hash function")
	}
	c := &Cache[K, V]{hash: hash, mask: uint64(n - 1), stripes: make([]stripe[K, V], n)}
	per := (capacity + n - 1) / n
	for i := range c.stripes {
		c.stripes[i].cap = per
		c.stripes[i].entries = make(map[K]*list.Element, per)
		c.stripes[i].order = list.New()
	}
	return c
}

// stripeFor routes a key to its stripe.
func (c *Cache[K, V]) stripeFor(key K) *stripe[K, V] {
	if len(c.stripes) == 1 {
		return &c.stripes[0]
	}
	return &c.stripes[c.hash(key)&c.mask]
}

// Do is DoCtx without a context: the caller waits for an in-flight
// computation unconditionally.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	return c.DoCtx(context.Background(), key, compute)
}

// DoCtx returns the memoized result of compute for key, running compute at
// most once per cached lifetime of the key — concurrent callers of a fresh
// key wait on the first caller's computation instead of repeating it. The
// returned value is shared with every other caller of the same key and must
// be treated as read-only; compute must be deterministic in the key.
//
// ctx governs only this caller's wait, never the computation: a waiter whose
// context expires returns ctx.Err() immediately, while the computing
// goroutine carries on and its result is cached for later callers. Only
// successful results stay cached. A compute that returns an error — the
// computing caller's own cancellation included — or panics hands that
// failure to the callers already waiting on the entry and then drops the
// entry, so the next caller recomputes; a panic additionally re-raises on
// the computing caller.
func (c *Cache[K, V]) DoCtx(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	st := c.stripeFor(key)
	st.mu.Lock()
	if el, ok := st.entries[key]; ok {
		st.order.MoveToFront(el)
		e := el.Value.(*item[K, V]).entry
		st.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	st.entries[key] = st.order.PushFront(&item[K, V]{key: key, entry: e})
	evicted := 0
	for len(st.entries) > st.cap {
		back := st.order.Back()
		st.order.Remove(back)
		delete(st.entries, back.Value.(*item[K, V]).key)
		evicted++
	}
	st.mu.Unlock()
	c.misses.Add(1)
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}

	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked. Publish an error describing the panic to the
		// waiters already coalesced on this entry — a closed done channel
		// with a zero value and nil error would be a silently poisoned
		// read — then drop the entry so later callers recompute, and let
		// the panic continue to the computing caller.
		e.err = fmt.Errorf("memo: compute panicked: %v", recover())
		c.drop(st, key, e)
		close(e.done)
		panic(e.err)
	}()
	e.val, e.err = compute()
	completed = true
	if e.err != nil {
		// Failures never stay cached: transient ones (cancellation, injected
		// faults, resource pressure) would poison the key for every later
		// caller, and deterministic ones merely recompute cheaply.
		c.drop(st, key, e)
	}
	close(e.done)
	return e.val, e.err
}

// DoBatch is DoBatchCtx without a context: the caller waits for in-flight
// computations unconditionally.
func (c *Cache[K, V]) DoBatch(keys []K, compute func(missing []K) ([]V, error)) ([]V, error) {
	return c.DoBatchCtx(context.Background(), keys, compute)
}

// DoBatchCtx returns the memoized results for keys — aligned with keys —
// running compute at most ONCE for however many of them are uncached:
// compute receives exactly the missing keys (batch order, duplicates
// folded) and must return one value per missing key, in order. All missing
// keys are claimed under their stripes' locks before compute runs, so
// concurrent DoCtx/DoBatchCtx callers of any individual key coalesce on
// that key's single-flight entry as usual — one batched computation
// populates every missing key while other callers wait per key.
//
// The failure policy is DoCtx's, applied batch-wide: an error or panic
// from compute publishes that failure to every waiter coalesced on any of
// the batch's fresh entries, drops them all (no partial fills — compute's
// values are only trusted as a complete, aligned set), and a panic
// re-raises. ctx governs only this caller's waits on entries other callers
// are filling; the batch's own compute always runs to completion once
// started.
//
// Two overlapping batches cannot deadlock: a batch computes the keys it
// claimed before waiting on keys claimed by others, so whichever goroutine
// owns an entry is never blocked on its peer.
func (c *Cache[K, V]) DoBatchCtx(ctx context.Context, keys []K, compute func(missing []K) ([]V, error)) ([]V, error) {
	vals := make([]V, len(keys))
	type waiter struct {
		idx int
		e   *entry[V]
	}
	var (
		waiters  []waiter
		missing  []K
		owned    []*entry[V]
		ownedIdx []int
		dups     [][2]int // {duplicate index, first-occurrence index}
	)
	first := make(map[K]int, len(keys))
	for i, k := range keys {
		if j, dup := first[k]; dup {
			dups = append(dups, [2]int{i, j})
			continue
		}
		first[k] = i
		st := c.stripeFor(k)
		st.mu.Lock()
		if el, ok := st.entries[k]; ok {
			st.order.MoveToFront(el)
			e := el.Value.(*item[K, V]).entry
			st.mu.Unlock()
			c.hits.Add(1)
			waiters = append(waiters, waiter{i, e})
			continue
		}
		e := &entry[V]{done: make(chan struct{})}
		st.entries[k] = st.order.PushFront(&item[K, V]{key: k, entry: e})
		evicted := 0
		for len(st.entries) > st.cap {
			back := st.order.Back()
			st.order.Remove(back)
			delete(st.entries, back.Value.(*item[K, V]).key)
			evicted++
		}
		st.mu.Unlock()
		c.misses.Add(1)
		if evicted > 0 {
			c.evictions.Add(int64(evicted))
		}
		missing = append(missing, k)
		owned = append(owned, e)
		ownedIdx = append(ownedIdx, i)
	}

	if len(missing) > 0 {
		var vs []V
		var err error
		completed := false
		func() {
			defer func() {
				if completed {
					return
				}
				// compute panicked: publish the failure to every waiter
				// already coalesced on a batch entry, drop the entries so
				// later callers recompute, and let the panic continue.
				perr := fmt.Errorf("memo: batch compute panicked: %v", recover())
				for i, e := range owned {
					e.err = perr
					c.drop(c.stripeFor(missing[i]), missing[i], e)
					close(e.done)
				}
				panic(perr)
			}()
			vs, err = compute(missing)
			completed = true
		}()
		if err == nil && len(vs) != len(missing) {
			err = fmt.Errorf("memo: batch compute returned %d values for %d missing keys", len(vs), len(missing))
		}
		for i, e := range owned {
			if err != nil {
				e.err = err
				c.drop(c.stripeFor(missing[i]), missing[i], e)
			} else {
				e.val = vs[i]
				vals[ownedIdx[i]] = vs[i]
			}
			close(e.done)
		}
		if err != nil {
			return nil, err
		}
	}

	for _, w := range waiters {
		select {
		case <-w.e.done:
			if w.e.err != nil {
				return nil, w.e.err
			}
			vals[w.idx] = w.e.val
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for _, d := range dups {
		vals[d[0]] = vals[d[1]]
	}
	return vals, nil
}

// drop unmaps a failed entry, unless eviction (or a concurrent Reset)
// already removed it — the pointer comparison keeps a stale drop from
// removing a successor entry under the same key.
func (c *Cache[K, V]) drop(st *stripe[K, V], key K, e *entry[V]) {
	st.mu.Lock()
	if el, ok := st.entries[key]; ok && el.Value.(*item[K, V]).entry == e {
		st.order.Remove(el)
		delete(st.entries, key)
		c.drops.Add(1)
	}
	st.mu.Unlock()
}

// Len returns the current number of cached keys across all stripes.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		n += len(st.entries)
		st.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache's counters. The counters are read individually,
// so a snapshot taken during concurrent use is approximate; quiesce the
// cache first when asserting exact figures.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Drops:     c.drops.Load(),
		Entries:   c.Len(),
	}
}

// Reset empties the cache and zeroes its counters, so benchmarks and tests
// measure from a fully cold state rather than a half-warm one.
func (c *Cache[K, V]) Reset() {
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		st.entries = make(map[K]*list.Element, st.cap)
		st.order.Init()
		st.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.drops.Store(0)
}

// Mix folds words into one 64-bit hash by chained SplitMix64 finalization —
// the stripe-routing companion of partition.TrialSeed's stream derivation.
func Mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = SplitMix64(h ^ w)
	}
	return h
}

// HashInt32s fingerprints an int32 sequence with two structurally
// independent 64-bit hashes — byte-wise FNV-1a and an element-wise
// SplitMix64 chain — computed in one pass. Caches keyed on both halves
// would need a simultaneous collision in two unrelated mixes (~2⁻¹²⁸) to
// serve one sequence's result for another, versus the findable-by-search
// 2⁻⁶⁴ of a single hash. It costs a pass over the sequence, so the
// registry runs it once per generated degree sequence and keeps the result
// with the sequence. It is stable across processes (no per-run hash seed),
// so fingerprint-keyed caches and checkpoint journals behave identically
// run to run.
func HashInt32s(vals []int32) (fnv, mix uint64) {
	const prime = 1099511628211
	fnv = 14695981039346656037
	mix = uint64(len(vals))
	for _, v := range vals {
		x := uint32(v)
		fnv = (fnv ^ uint64(x&0xff)) * prime
		fnv = (fnv ^ uint64(x>>8&0xff)) * prime
		fnv = (fnv ^ uint64(x>>16&0xff)) * prime
		fnv = (fnv ^ uint64(x>>24&0xff)) * prime
		mix = SplitMix64(mix ^ uint64(x))
	}
	return fnv, mix
}

// SplitMix64 is the SplitMix64 finalizer (Steele, Lea, Flood 2014), a
// bijective avalanche mix — the single copy in the module; hashing here
// and RNG stream derivation (partition.TrialSeed) both build on it.
func SplitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
