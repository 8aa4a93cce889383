package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestClassify: only transient-marked errors retry, anywhere in a wrapped
// chain, and cancellation dominates the marker.
func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name                 string
		err                  error
		transient, cancelled bool
	}{
		{"nil", nil, false, false},
		{"plain", base, false, false},
		{"wrapped plain", fmt.Errorf("outer: %w", base), false, false},
		{"transient", MarkTransient(base), true, false},
		{"wrapped transient", fmt.Errorf("outer: %w", MarkTransient(base)), true, false},
		{"double marked", MarkTransient(MarkTransient(base)), true, false},
		{"cancelled", context.Canceled, false, true},
		{"deadline", fmt.Errorf("outer: %w", context.DeadlineExceeded), false, true},
		// Cancellation dominates: a transient marker around a context error
		// must not cause retries of an abandoned run.
		{"transient cancel", MarkTransient(fmt.Errorf("k: %w", context.Canceled)), false, true},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.transient {
			t.Errorf("%s: IsTransient = %v, want %v", tc.name, got, tc.transient)
		}
		if got := IsCancelled(tc.err); got != tc.cancelled {
			t.Errorf("%s: IsCancelled = %v, want %v", tc.name, got, tc.cancelled)
		}
	}
	if !errors.Is(MarkTransient(base), Transient) {
		t.Error("errors.Is(MarkTransient(err), Transient) = false")
	}
	if errors.Is(base, Transient) {
		t.Error("plain error matches Transient")
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	// The marker preserves the cause chain.
	if !errors.Is(MarkTransient(fmt.Errorf("outer: %w", base)), base) {
		t.Error("marker broke the cause chain")
	}
}

func TestPolicyDoRetriesTransient(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3}
	err := p.Do(context.Background(), 1, func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestPolicyDoPermanentFailsFast(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5}
	boom := errors.New("deterministic")
	err := p.Do(context.Background(), 1, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent errors must not retry)", calls)
	}
}

func TestPolicyDoExhaustsAttempts(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3}
	err := p.Do(context.Background(), 1, func() error {
		calls++
		return MarkTransient(errors.New("always"))
	})
	if !IsTransient(err) {
		t.Fatalf("Do = %v, want transient", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestPolicyDoCancelledStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{MaxAttempts: 10}
	err := p.Do(ctx, 1, func() error {
		calls++
		cancel()
		return MarkTransient(errors.New("flaky"))
	})
	if err == nil {
		t.Fatal("Do = nil after cancellation")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled runs must not retry)", calls)
	}
}

func TestDelayDeterministicAndCapped(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		a := backoff(99, attempt)
		b := backoff(99, attempt)
		if a != b {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", attempt, a, b)
		}
		if a < 0 || a > maxDelay*3/2 { // cap × 1.5 max jitter
			t.Fatalf("attempt %d: delay %v outside jittered cap", attempt, a)
		}
	}
	if d := backoff(99, 0); d < baseDelay/2 || d >= baseDelay*3/2 {
		t.Errorf("first delay %v outside the jittered base delay", d)
	}
	if backoff(1, 0) == backoff(2, 0) {
		t.Error("distinct keys produced identical jitter (possible, but suspicious)")
	}
}

func TestBudgetDrainAndRefill(t *testing.T) {
	b := NewBudget(2)
	if !b.TryTake() || !b.TryTake() {
		t.Fatal("fresh budget denied its stated retries")
	}
	if b.TryTake() {
		t.Fatal("drained budget granted a retry")
	}
	for i := 0; i < 10; i++ {
		b.Credit()
	}
	if !b.TryTake() {
		t.Fatal("10 credits did not refill one retry")
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("Remaining = %d, want 0", got)
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(100)
	var granted, wg = int64(0), sync.WaitGroup{}
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < 1000; i++ {
				if b.TryTake() {
					local++
				}
				b.Credit()
			}
			mu.Lock()
			granted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Conservation: 1000 initial tenths + 8000 credited tenths grant at
	// most 900 ten-tenth retries; anything more means tokens were minted.
	if granted > 900 {
		t.Fatalf("granted %d retries from a 100-retry budget with 8000 credits (max 900)", granted)
	}
}

// TestShouldRetryConsumesBudget: every retry Do takes spends a budget
// token and counts in TotalRetries, and a drained budget stops retrying
// below the attempt cap.
func TestShouldRetryConsumesBudget(t *testing.T) {
	defer func(b *Budget) { budget = b }(budget)
	budget = NewBudget(1)
	calls := 0
	before := TotalRetries()
	err := Policy{MaxAttempts: 10}.Do(context.Background(), 1, func() error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if !IsTransient(err) {
		t.Fatalf("Do = %v, want transient", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (one retry from a one-retry budget)", calls)
	}
	if TotalRetries()-before != 1 {
		t.Fatalf("TotalRetries delta = %d, want 1", TotalRetries()-before)
	}
}

func TestSetDefaultRoundTrips(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	p := Policy{MaxAttempts: 7}
	SetDefault(p)
	if got := Default(); got.MaxAttempts != 7 {
		t.Fatalf("Default = %+v after SetDefault(%+v)", got, p)
	}
}
