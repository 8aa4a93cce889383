package resilience

import (
	"context"
	"sync"
	"time"
)

// Breaker states, exported through dmls-serve's dmls_breaker_state gauge.
// Closed is the healthy fast path; Open fails every kernel fill fast;
// HalfOpen admits exactly one probe fill to test recovery.
const (
	BreakerClosed   = 0
	BreakerOpen     = 1
	BreakerHalfOpen = 2
)

// The breaker's sizing: it judges the failure ratio of the last
// breakerWindow kernel fills, and may trip only once the window holds
// breakerMinSamples of them, so a single early failure cannot open it.
const (
	breakerWindow       = 20
	breakerMinSamples   = 5
	breakerFailureRatio = 0.5
)

// Breaker is a circuit breaker over the kernel fill's failure rate.
// Closed, it admits every fill while tracking a rolling window of their
// outcomes; when the window's failure ratio reaches the threshold it opens
// and Allow answers false. After the open period it goes half-open:
// exactly one probe fill is admitted, and its outcome decides — success
// closes the breaker with a fresh window, failure re-opens it for another
// open period. Neutral outcomes (cancellations, permanent errors) must
// call Cancel instead of Record so they neither trip nor heal the breaker,
// and so a neutral probe releases the probe slot.
//
// The clock is injectable for tests. All methods are safe for concurrent
// use, and a nil *Breaker is a breaker that is always closed.
type Breaker struct {
	mu      sync.Mutex
	openFor time.Duration
	now     func() time.Time

	state    int
	openedAt time.Time
	probing  bool

	// window is a ring of the last breakerWindow outcomes (true = failure).
	window [breakerWindow]bool
	next   int
	filled int
	fails  int
}

// NewBreaker builds a closed breaker that stays open for openFor once
// tripped; a nil clock uses time.Now.
func NewBreaker(openFor time.Duration, clock func() time.Time) *Breaker {
	if clock == nil {
		clock = time.Now
	}
	return &Breaker{openFor: openFor, now: clock}
}

// Allow reports whether a kernel fill may run. In half-open state it hands
// out the single probe slot; callers that take it MUST later call Record
// or Cancel, or the breaker wedges half-open.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds one fill outcome back. In half-open state it resolves the
// probe: success closes the breaker (fresh window), failure re-opens it.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if success {
			b.toClosed()
		} else {
			b.toOpen()
		}
		return
	}
	if b.state == BreakerOpen {
		// Late result from a fill admitted before the trip: ignore.
		return
	}
	if b.filled == len(b.window) {
		if b.window[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.next] = !success
	if !success {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.window)
	if b.filled >= breakerMinSamples &&
		float64(b.fails) >= breakerFailureRatio*float64(b.filled) {
		b.toOpen()
	}
}

// Cancel releases a half-open probe slot without judging the kernel — for
// outcomes that say nothing about its health (cancellation, expired
// deadline, permanent error, panic).
func (b *Breaker) Cancel() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// ForceOpen trips the breaker immediately — chaos drills and tests.
func (b *Breaker) ForceOpen() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.toOpen()
}

// State returns the current state constant, promoting an expired open
// period to half-open so gauges and healthz reflect that a probe would be
// admitted.
func (b *Breaker) State() int {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.openFor {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// toOpen and toClosed assume b.mu is held.
func (b *Breaker) toOpen() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.probing = false
	b.resetWindow()
}

func (b *Breaker) toClosed() {
	b.state = BreakerClosed
	b.probing = false
	b.resetWindow()
}

func (b *Breaker) resetWindow() {
	b.window = [breakerWindow]bool{}
	b.next, b.filled, b.fails = 0, 0, 0
}

// breakerKey carries the kernel breaker through a context.
type breakerKey struct{}

// WithBreaker returns a context whose kernel fills consult b: Policy.Do
// fails them fast with ErrKernelUnavailable while b is open, and feeds b
// their outcomes. Without one, fills run unguarded.
func WithBreaker(ctx context.Context, b *Breaker) context.Context {
	return context.WithValue(ctx, breakerKey{}, b)
}

// breakerFrom returns the context's breaker, nil when it carries none.
func breakerFrom(ctx context.Context) *Breaker {
	b, _ := ctx.Value(breakerKey{}).(*Breaker)
	return b
}
