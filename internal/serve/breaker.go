package serve

import (
	"sync"
	"time"
)

// Breaker states, exported through the dmls_breaker_state gauge. Closed is
// the healthy fast path; Open sheds kernel work entirely; HalfOpen admits
// exactly one probe request to test recovery.
const (
	BreakerClosed   = 0
	BreakerOpen     = 1
	BreakerHalfOpen = 2
)

// BreakerConfig sizes one route's circuit breaker. The zero value takes
// production-shaped defaults.
type BreakerConfig struct {
	// Window is how many most-recent request outcomes the failure ratio is
	// computed over; default 20.
	Window int
	// MinSamples is the minimum number of outcomes in the window before the
	// breaker may trip — a single early failure must not open it; default 5.
	MinSamples int
	// FailureRatio opens the breaker when failures/outcomes reaches it;
	// default 0.5.
	FailureRatio float64
	// OpenFor is how long the breaker stays open before admitting a
	// half-open probe; default 15s.
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRatio <= 0 || c.FailureRatio > 1 {
		c.FailureRatio = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 15 * time.Second
	}
	return c
}

// Breaker is a per-route circuit breaker over kernel failure rate. Closed,
// it passes requests through while tracking a rolling window of outcomes;
// when the window's failure ratio crosses the threshold it opens and Allow
// answers false (the route degrades or sheds). After OpenFor it goes
// half-open: exactly one probe request is admitted, and its outcome decides
// — success closes the breaker with a fresh window, failure re-opens it for
// another OpenFor. Neutral outcomes (cancelled requests, bad requests)
// must call Cancel instead of Record so they neither trip nor heal the
// breaker, and so a cancelled probe releases the probe slot.
//
// The clock is injectable for tests; all methods are safe for concurrent
// use.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig
	now func() time.Time

	state    int
	openedAt time.Time
	probing  bool

	// window is a ring of the last cfg.Window outcomes (true = failure).
	window []bool
	next   int
	filled int
	fails  int
}

// NewBreaker builds a breaker; a nil clock uses time.Now.
func NewBreaker(cfg BreakerConfig, clock func() time.Time) *Breaker {
	cfg = cfg.withDefaults()
	if clock == nil {
		clock = time.Now
	}
	return &Breaker{cfg: cfg, now: clock, window: make([]bool, cfg.Window)}
}

// Allow reports whether a request may run the real (kernel-backed) path.
// In half-open state it hands out the single probe slot; callers that take
// it MUST later call Record or Cancel, or the breaker wedges half-open.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
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

// Record feeds one request outcome back. In half-open state it resolves the
// probe: success closes the breaker (fresh window), failure re-opens it.
func (b *Breaker) Record(success bool) {
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
		// Late result from a request admitted before the trip: ignore.
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
	if b.filled >= b.cfg.MinSamples &&
		float64(b.fails) >= b.cfg.FailureRatio*float64(b.filled) {
		b.toOpen()
	}
}

// Cancel releases a half-open probe slot without judging the service —
// for outcomes that say nothing about kernel health (client disconnect,
// expired deadline, malformed request).
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// ForceOpen trips the breaker immediately — chaos drills and tests.
func (b *Breaker) ForceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.toOpen()
}

// State returns the current state constant, promoting an expired open
// period to half-open so gauges and healthz reflect that a probe would be
// admitted.
func (b *Breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.OpenFor {
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
	for i := range b.window {
		b.window[i] = false
	}
	b.next, b.filled, b.fails = 0, 0, 0
}
