package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBreakerStateMachine drives breakers through their whole lifecycle
// with an injected clock: closed below the minimum sample count, tripped
// once it is reached, open denies, half-open admits exactly one probe,
// Cancel releases the probe slot without judging the kernel, probe failure
// re-opens, probe success closes with a fresh window, and the failure
// ratio is taken over a window that slides over the last breakerWindow
// outcomes.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(time.Second, clock)
	record := func(success bool, n int) {
		for range n {
			b.Record(success)
		}
	}

	if st := b.State(); st != BreakerClosed {
		t.Fatalf("initial state = %d, want closed", st)
	}
	// Failures below the minimum sample count cannot trip it; the next
	// one does.
	record(false, breakerMinSamples-1)
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("breaker tripped below its minimum sample count")
	}
	record(false, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state at the minimum sample count = %d, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a fill")
	}
	// Open period lapses: exactly one probe is admitted.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A cancelled probe releases the slot without closing or re-opening.
	b.Cancel()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cancelled probe = %d, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("probe slot not released by Cancel")
	}
	// Probe failure re-opens for another full period.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe denied")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", b.State())
	}
	// The window restarted clean, so the pre-trip failures are forgotten:
	// 4 failures of 9 stay below the ratio, the 5th of 10 reaches it.
	record(true, 5)
	record(false, 4)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below its failure ratio (stale window?)")
	}
	record(false, 1)
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at its failure ratio")
	}

	// The window slides: after a full window of successes, failures count
	// only against the last breakerWindow outcomes, so the trip comes at
	// half a window of failures, not at half of every outcome seen.
	b = NewBreaker(time.Second, clock)
	record(true, breakerWindow)
	record(false, breakerWindow/2-1)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below the ratio of its window")
	}
	record(false, 1)
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at the ratio of its sliding window")
	}

	// A nil breaker is always closed.
	var nb *Breaker
	nb.Record(false)
	nb.Cancel()
	nb.ForceOpen()
	if !nb.Allow() || nb.State() != BreakerClosed {
		t.Fatal("nil breaker is not always closed")
	}
}

// TestPolicyDoBreakerGate: an open breaker fails Do with
// ErrKernelUnavailable without running op; the outcomes Do feeds back trip
// the breaker only on transient failures the retries could not absorb;
// and a panicking probe releases the half-open slot instead of wedging it.
func TestPolicyDoBreakerGate(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(time.Second, func() time.Time { return now })
	ctx := WithBreaker(context.Background(), b)
	p := Policy{MaxAttempts: 1}

	// Permanent errors are neutral, however many.
	for range 2 * breakerMinSamples {
		if err := p.Do(ctx, 1, func() error { return errors.New("bad input") }); err == nil {
			t.Fatal("Do swallowed a permanent error")
		}
	}
	if b.State() != BreakerClosed {
		t.Fatal("permanent errors tripped the breaker")
	}
	// Transient failures trip it.
	for range breakerMinSamples {
		p.Do(ctx, 1, func() error { return MarkTransient(errors.New("flaky")) })
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d transient failures = %d, want open", breakerMinSamples, b.State())
	}

	ran := false
	err := p.Do(ctx, 1, func() error { ran = true; return nil })
	if !errors.Is(err, ErrKernelUnavailable) || ran {
		t.Fatalf("open breaker: Do = %v, op ran %v; want ErrKernelUnavailable without running op", err, ran)
	}
	if IsTransient(err) {
		t.Fatal("ErrKernelUnavailable is transient; nothing may retry it")
	}

	// The probe panics: the slot must be released for the next probe.
	now = now.Add(time.Second)
	func() {
		defer func() { recover() }()
		p.Do(ctx, 1, func() error { panic("kernel bug") })
	}()
	if err := p.Do(ctx, 1, func() error { return nil }); err != nil {
		t.Fatalf("probe after a panicked probe: %v (slot wedged?)", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after a clean probe = %d, want closed", b.State())
	}
}
