package resilience

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dmlscale/internal/memo"
)

// Budget is a shared retry allowance: a token pool drawn down by every
// retry and replenished by successful kernel computes, so a grid where
// many kernels fail at once degrades to first-attempt-only instead of
// multiplying its own load (the classic retry-storm amplification). Tokens
// are stored in tenths: a retry costs 10 tenths, a success credits 1, so
// sustained retry traffic is capped near 10% of successful traffic once
// the initial pool drains. The zero value is unusable; NewBudget returns a
// full pool.
type Budget struct {
	tenths atomic.Int64
	max    int64
}

// NewBudget returns a budget allowing maxRetries immediate retries,
// refilling at one retry per ten successes up to that cap.
func NewBudget(maxRetries int) *Budget {
	if maxRetries < 1 {
		maxRetries = 1
	}
	b := &Budget{max: int64(maxRetries) * 10}
	b.tenths.Store(b.max)
	return b
}

// TryTake claims one retry token. It never blocks: a drained budget simply
// stops granting retries until successes refill it.
func (b *Budget) TryTake() bool {
	for {
		cur := b.tenths.Load()
		if cur < 10 {
			return false
		}
		if b.tenths.CompareAndSwap(cur, cur-10) {
			return true
		}
	}
}

// Credit refills one tenth of a retry token on a successful operation,
// saturating at the pool's cap.
func (b *Budget) Credit() {
	for {
		cur := b.tenths.Load()
		if cur >= b.max {
			return
		}
		if b.tenths.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

// Remaining reports how many whole retries the budget currently grants.
func (b *Budget) Remaining() int { return int(b.tenths.Load() / 10) }

// The backoff schedule every retry follows: baseDelay before the first
// retry, doubling per further retry up to maxDelay, each delay spread
// uniformly over [1-jitter, 1+jitter)× itself.
const (
	baseDelay = 2 * time.Millisecond
	maxDelay  = 250 * time.Millisecond
	jitter    = 0.5
)

// budget is the process-wide retry budget every retry draws on: 256
// immediate retries, refilled by successful kernel computes.
var budget = NewBudget(256)

// Policy is the retry policy: capped exponential backoff with deterministic
// jitter on the shared process budget. The zero value retries nothing.
type Policy struct {
	// MaxAttempts is the total attempt cap including the first; values
	// below 2 disable retry.
	MaxAttempts int
}

// backoff returns the delay before retry number attempt+1 (attempt is
// 0-based). The jitter is deterministic — SplitMix64 of (key, attempt) —
// so runs are reproducible while concurrent retries still decorrelate.
func backoff(key uint64, attempt int) time.Duration {
	d := float64(baseDelay)
	for i := 0; i < attempt && d < float64(maxDelay); i++ {
		d *= 2
	}
	d = min(d, float64(maxDelay))
	// Uniform in [1-jitter, 1+jitter) from the top 53 bits.
	u := float64(memo.Mix(0, key, uint64(attempt))>>11) / (1 << 53)
	return time.Duration(d * (1 - jitter + 2*jitter*u))
}

// Do runs op under the policy and the context's breaker (WithBreaker).
// While the breaker is open it returns ErrKernelUnavailable without
// running op. Otherwise a transient failure backs off and retries while
// the caller's context is live, the attempt cap is not reached and the
// budget grants a token; each granted retry counts in TotalRetries, and
// each success credits the budget. key decorrelates the jitter of
// concurrent retries. The returned error is the last attempt's, except
// that a caller-side cancellation during backoff returns the context's
// error.
//
// The outcome feeds the breaker: a success counts for the kernel, a
// transient failure the retries could not absorb counts against it, and a
// cancellation, a permanent error or a panic in op counts for neither, so
// input errors and expired deadlines cannot trip the breaker, and a
// half-open probe slot is released rather than wedged.
func (p Policy) Do(ctx context.Context, key uint64, op func() error) error {
	b := breakerFrom(ctx)
	if !b.Allow() {
		return ErrKernelUnavailable
	}
	judged := false
	defer func() {
		if !judged {
			b.Cancel() // op panicked
		}
	}()
	err := p.retry(ctx, key, op)
	judged = true
	switch {
	case err == nil:
		b.Record(true)
	case IsTransient(err):
		b.Record(false)
	default:
		b.Cancel()
	}
	return err
}

// retry is Do's attempt loop, without the breaker.
func (p Policy) retry(ctx context.Context, key uint64, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			budget.Credit()
			return nil
		}
		if !IsTransient(err) || ctx.Err() != nil || attempt+1 >= p.MaxAttempts || !budget.TryTake() {
			return err
		}
		retriesTotal.Add(1)
		t := time.NewTimer(backoff(key, attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("resilience: retry abandoned: %w", ctx.Err())
		}
	}
}

// retriesTotal counts every retry granted process-wide. EvalStats.Retried
// is its delta across a pass; dmls_retries_total exposes it to scrapes.
var retriesTotal atomic.Int64

// TotalRetries returns the cumulative process-wide retry count.
func TotalRetries() int64 { return retriesTotal.Load() }

// currentPolicy holds the installed process-wide policy. The default
// allows up to 2 retries per kernel computation; only transient-marked
// errors retry, so the deterministic failure modes (bad suites, broken
// models) are untouched.
var currentPolicy atomic.Pointer[Policy]

func init() { SetDefault(Policy{MaxAttempts: 3}) }

// Default returns the process-wide retry policy the kernel fill
// (internal/registry) consults.
func Default() Policy { return *currentPolicy.Load() }

// SetDefault installs the process-wide retry policy. The CLIs wire their
// -retries flag through here; tests pair every install with a deferred
// restore.
func SetDefault(p Policy) { currentPolicy.Store(&p) }
