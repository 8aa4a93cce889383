package memo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCachesValues(t *testing.T) {
	c := New[string, int](4, 1, nil)
	calls := 0
	get := func(k string) int {
		v, err := c.Do(k, func() (int, error) {
			calls++
			return len(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := get("abc"); got != 3 {
		t.Fatalf("Do = %d, want 3", got)
	}
	if got := get("abc"); got != 3 {
		t.Fatalf("cached Do = %d, want 3", got)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 0 evictions, 1 entry", st)
	}
	if r := st.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", r)
	}
}

// TestDoDropsErrorEntries: failures never stay cached. Each sequential
// caller of a failing key recomputes, and once the key succeeds it is
// served from cache like any other.
func TestDoDropsErrorEntries(t *testing.T) {
	c := New[int, int](4, 1, nil)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := c.Do(7, func() (int, error) {
			calls++
			return 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 3 {
		t.Errorf("failing compute ran %d times, want 3 (failures are dropped, not cached)", calls)
	}
	if st := c.Stats(); st.Drops != 3 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 3 drops, 0 entries", st)
	}
	ok := 0
	for i := 0; i < 2; i++ {
		if v, err := c.Do(7, func() (int, error) { ok++; return 49, nil }); v != 49 || err != nil {
			t.Fatalf("recovered key got (%d, %v), want (49, nil)", v, err)
		}
	}
	if ok != 1 {
		t.Errorf("recovered compute ran %d times, want 1 (success is cached)", ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[string, int](2, 1, nil)
	one := func() (int, error) { return 1, nil }
	c.Do("a", one)
	c.Do("b", one)
	c.Do("a", one) // promote a; b is now LRU
	c.Do("c", one) // evicts b
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	misses := st.Misses
	c.Do("a", one)
	c.Do("c", one)
	if got := c.Stats().Misses; got != misses {
		t.Errorf("survivors recomputed: misses %d → %d", misses, got)
	}
	c.Do("b", one)
	if got := c.Stats().Misses; got != misses+1 {
		t.Errorf("evicted key served from cache: misses %d → %d", misses, got)
	}
}

func TestStripedCacheBoundsEntries(t *testing.T) {
	const capacity = 8
	c := New[int, int](capacity, 4, func(k int) uint64 { return Mix(uint64(k)) })
	if len(c.stripes) != 4 {
		t.Fatalf("stripes = %d, want 4", len(c.stripes))
	}
	for i := 0; i < 100; i++ {
		c.Do(i, func() (int, error) { return i, nil })
	}
	if n := c.Len(); n > capacity {
		t.Errorf("cache holds %d entries, capacity %d", n, capacity)
	}
	st := c.Stats()
	if st.Misses != 100 {
		t.Errorf("misses = %d, want 100 distinct computations", st.Misses)
	}
	if st.Evictions != st.Misses-int64(st.Entries) {
		t.Errorf("evictions %d != misses %d - entries %d", st.Evictions, st.Misses, st.Entries)
	}
}

func TestStripeCountRounding(t *testing.T) {
	hash := func(k int) uint64 { return uint64(k) }
	cases := []struct {
		capacity, stripes, want int
	}{
		{32, 1, 1},
		{32, 7, 4}, // rounds down to a power of two
		{32, 16, 16},
		{2, 16, 2}, // never more stripes than capacity
		{1, 16, 1},
	}
	for _, tt := range cases {
		c := New[int, int](tt.capacity, tt.stripes, hash)
		if got := len(c.stripes); got != tt.want {
			t.Errorf("New(cap %d, stripes %d): %d stripes, want %d", tt.capacity, tt.stripes, got, tt.want)
		}
	}
}

func TestNewPanicsOnBadArguments(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero capacity", func() { New[int, int](0, 1, nil) })
	mustPanic("striped without hash", func() { New[int, int](8, 4, nil) })
}

func TestSingleFlight(t *testing.T) {
	c := New[int, int](8, 1, nil)
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, 64)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Do(1, func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times under contention, want 1", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Errorf("goroutine %d got %d, want 42", g, v)
		}
	}
}

// TestConcurrentEvictionHammer drives a small striped cache far past its
// bound from many goroutines; run with -race. Every returned value must
// equal the key's deterministic function even while entries churn.
func TestConcurrentEvictionHammer(t *testing.T) {
	c := New[int, int](16, 4, func(k int) uint64 { return Mix(uint64(k)) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := (g*7 + i) % 97
				v, err := c.Do(key, func() (int, error) { return key * key, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != key*key {
					t.Errorf("key %d: got %d, want %d", key, v, key*key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 {
		t.Errorf("stats = %+v: hammer never evicted; keyspace not eviction-sized", st)
	}
}

// TestDoPanicDoesNotPoisonEntry: a panicking compute re-raises on its own
// caller, hands a panic-describing error to any already-coalesced waiter,
// and drops the entry — so a later caller of the same key recomputes and
// succeeds instead of reading a poisoned value.
func TestDoPanicDoesNotPoisonEntry(t *testing.T) {
	c := New[int, int](4, 1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	firstPanic := make(chan any, 1)
	go func() {
		defer func() { firstPanic <- recover() }()
		c.Do(1, func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started // the single-flight entry is now in the map, compute blocked
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Do(1, func() (int, error) {
			t.Error("waiter recomputed instead of coalescing on the in-flight entry")
			return 0, nil
		})
		waiterErr <- err
	}()
	// Give the waiter a moment to coalesce; the entry cannot disappear
	// before release closes, so it can only wait, never recompute.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-firstPanic; p == nil {
		t.Error("panic not re-raised on the computing caller")
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("coalesced waiter got err %v, want the panic error", err)
	}
	// The poisoned entry is gone: a later caller recomputes and succeeds.
	if v, err := c.Do(1, func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("later caller got (%d, %v), want (7, nil)", v, err)
	}
	// Other keys are unaffected.
	if v, err := c.Do(2, func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("healthy key got (%d, %v)", v, err)
	}
}

// TestDoCtxAbandonedWaiter (satellite: cancellation edges): a waiter whose
// context expires returns immediately with the context error, while the
// computing goroutine finishes undisturbed and its result is cached for
// later callers.
func TestDoCtxAbandonedWaiter(t *testing.T) {
	c := New[int, int](4, 1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.Do(1, func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("computing caller got (%d, %v), want (42, nil)", v, err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DoCtx(ctx, 1, func() (int, error) {
		t.Error("abandoning waiter recomputed")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
	// The abandoned wait did not prevent caching: a later caller hits.
	calls := 0
	if v, err := c.Do(1, func() (int, error) { calls++; return 0, nil }); v != 42 || err != nil || calls != 0 {
		t.Errorf("later caller got (%d, %v, %d recomputes), want the cached 42", v, err, calls)
	}
	if st := c.Stats(); st.Drops != 0 {
		t.Errorf("stats = %+v: abandoning a wait must not drop the entry", st)
	}
}

// TestDoCtxComputingCallerCancelled: when the computing caller itself
// returns its context error, the entry is dropped — a cancelled request
// must not poison the key — and the next caller recomputes.
func TestDoCtxComputingCallerCancelled(t *testing.T) {
	c := New[int, int](4, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DoCtx(ctx, 5, func() (int, error) {
		return 0, ctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if v, err := c.Do(5, func() (int, error) { return 9, nil }); v != 9 || err != nil {
		t.Errorf("post-cancellation caller got (%d, %v), want (9, nil)", v, err)
	}
}

func TestReset(t *testing.T) {
	c := New[int, int](4, 1, nil)
	c.Do(1, func() (int, error) { return 1, nil })
	c.Do(1, func() (int, error) { return 1, nil })
	c.Reset()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 || st.Entries != 0 {
		t.Errorf("stats after reset = %+v, want all zero", st)
	}
	calls := 0
	c.Do(1, func() (int, error) { calls++; return 2, nil })
	if calls != 1 {
		t.Errorf("entry survived reset")
	}
}

func TestMixAndHashInt32s(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Error("Mix is order-insensitive")
	}
	if Mix(1) == Mix(1, 0) {
		t.Error("Mix ignores trailing words")
	}
	both := func(vals []int32) [2]uint64 {
		fnv, mix := HashInt32s(vals)
		return [2]uint64{fnv, mix}
	}
	a := []int32{1, 2, 3}
	if both(a) != both([]int32{1, 2, 3}) {
		t.Error("equal sequences hash differently")
	}
	reversed := both([]int32{3, 2, 1})
	if both(a)[0] == reversed[0] || both(a)[1] == reversed[1] {
		t.Error("HashInt32s is order-insensitive")
	}
	zero := both([]int32{0})
	if empty := both(nil); empty[0] == zero[0] || empty[1] == zero[1] {
		t.Error("HashInt32s ignores length")
	}
	if h := both(a); h[0] == h[1] {
		t.Error("the two fingerprint halves coincide; they must be independent mixes")
	}
	// Pinned values: both halves key the kernel-estimate cache and are the
	// coordinates of every checkpoint journal's kernel records, so a change
	// here would orphan every existing -checkpoint journal.
	if got, want := both([]int32{0, 1, -1, 7, 1 << 20, 42}), [2]uint64{9317719779703917405, 14738752999842486978}; got != want {
		t.Errorf("HashInt32s = %v, want pinned %v", got, want)
	}
}

func BenchmarkDoHit(b *testing.B) {
	c := New[int, float64](4096, 16, func(k int) uint64 { return Mix(uint64(k)) })
	for i := 0; i < 64; i++ {
		c.Do(i, func() (float64, error) { return float64(i), nil })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(i%64, func() (float64, error) { return 0, fmt.Errorf("cold") }); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDoBatchFillsMissingOnce(t *testing.T) {
	c := New[int, int](16, 1, nil)
	// Warm two of the five keys individually.
	for _, k := range []int{2, 4} {
		if _, err := c.Do(k, func() (int, error) { return k * 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var computes atomic.Int64
	vals, err := c.DoBatch([]int{1, 2, 3, 4, 5}, func(missing []int) ([]int, error) {
		computes.Add(1)
		want := []int{1, 3, 5}
		if len(missing) != len(want) {
			t.Errorf("missing = %v, want %v", missing, want)
		}
		for i, k := range missing {
			if k != want[i] {
				t.Errorf("missing = %v, want %v", missing, want)
				break
			}
		}
		out := make([]int, len(missing))
		for i, k := range missing {
			out[i] = k * 10
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int{1, 2, 3, 4, 5} {
		if vals[i] != k*10 {
			t.Errorf("vals[%d] = %d, want %d", i, vals[i], k*10)
		}
	}
	if computes.Load() != 1 {
		t.Errorf("batch compute ran %d times, want 1", computes.Load())
	}
	// Every key is now cached: a second batch computes nothing.
	vals, err = c.DoBatch([]int{5, 4, 3, 2, 1}, func(missing []int) ([]int, error) {
		t.Errorf("warm batch recomputed %v", missing)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int{5, 4, 3, 2, 1} {
		if vals[i] != k*10 {
			t.Errorf("warm vals[%d] = %d, want %d", i, vals[i], k*10)
		}
	}
}

func TestDoBatchFoldsDuplicates(t *testing.T) {
	c := New[int, int](16, 1, nil)
	vals, err := c.DoBatch([]int{7, 7, 8, 7}, func(missing []int) ([]int, error) {
		if len(missing) != 2 || missing[0] != 7 || missing[1] != 8 {
			t.Errorf("missing = %v, want [7 8]", missing)
		}
		return []int{70, 80}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{70, 70, 80, 70}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals = %v, want %v", vals, want)
			break
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses, 0 hits", st)
	}
}

func TestDoBatchErrorDropsAllEntries(t *testing.T) {
	c := New[int, int](16, 1, nil)
	boom := errors.New("boom")
	if _, err := c.DoBatch([]int{1, 2, 3}, func([]int) ([]int, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Drops != 3 {
		t.Errorf("stats = %+v, want 0 entries, 3 drops", st)
	}
	// A misaligned result set is an error too, and nothing stays cached.
	if _, err := c.DoBatch([]int{1, 2}, func([]int) ([]int, error) {
		return []int{10}, nil
	}); err == nil {
		t.Fatal("misaligned batch result accepted")
	}
	if n := c.Len(); n != 0 {
		t.Errorf("%d entries cached after misaligned batch, want 0", n)
	}
}

func TestDoBatchPanicDoesNotPoisonEntries(t *testing.T) {
	c := New[int, int](16, 1, nil)
	// A waiter coalesced on a batch-owned key must see the panic as an
	// error, and the keys must recompute cleanly afterwards.
	started := make(chan struct{})
	release := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("batch compute panic did not re-raise")
			}
		}()
		c.DoBatch([]int{1, 2}, func([]int) ([]int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	go func() {
		_, err := c.Do(1, func() (int, error) {
			t.Error("waiter recomputed while batch in flight")
			return 0, nil
		})
		waiterErr <- err
	}()
	// Give the waiter a moment to coalesce on the in-flight entry, then
	// release the panicking batch.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("waiter err = %v, want published panic", err)
	}
	// The keys recompute cleanly now.
	v, err := c.Do(1, func() (int, error) { return 11, nil })
	if err != nil || v != 11 {
		t.Errorf("recompute after panic = %d, %v", v, err)
	}
}

func TestDoBatchCoalescesWithSingles(t *testing.T) {
	// A DoCtx caller of a key a batch claimed waits on that one key, not
	// the whole batch; and a second overlapping batch computes only the
	// keys the first did not claim. Run with enough concurrency that the
	// race detector gets a real workout.
	c := New[int, int](256, 4, func(k int) uint64 { return SplitMix64(uint64(k)) })
	var computed atomic.Int64
	fill := func(missing []int) ([]int, error) {
		out := make([]int, len(missing))
		for i, k := range missing {
			computed.Add(1)
			out[i] = k * 10
		}
		return out, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]int, 0, 32)
			for k := g; k < g+32; k++ {
				keys = append(keys, k)
			}
			vals, err := c.DoBatch(keys, fill)
			if err != nil {
				t.Error(err)
				return
			}
			for i, k := range keys {
				if vals[i] != k*10 {
					t.Errorf("batch vals[%d] = %d, want %d", i, vals[i], k*10)
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < g+32; k++ {
				v, err := c.Do(k, func() (int, error) {
					computed.Add(1)
					return k * 10, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != k*10 {
					t.Errorf("Do(%d) = %d, want %d", k, v, k*10)
				}
			}
		}()
	}
	wg.Wait()
	// Keys 0..38 exist; every computation must have produced a distinct
	// key exactly once (single-flight across batches and singles).
	if got, want := computed.Load(), int64(39); got != want {
		t.Errorf("computed %d values, want %d (one per distinct key)", got, want)
	}
}
