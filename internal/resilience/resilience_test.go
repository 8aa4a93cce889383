package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestClassify: a context cancellation or deadline expiry is recognised
// anywhere in a wrapped chain, and nothing else is.
func TestClassify(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		cancelled bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"wrapped plain", fmt.Errorf("outer: %w", errors.New("boom")), false},
		{"cancelled", context.Canceled, true},
		{"deadline", fmt.Errorf("outer: %w", context.DeadlineExceeded), true},
		{"doubly wrapped cancel", fmt.Errorf("cell: %w", fmt.Errorf("kernel: %w", context.Canceled)), true},
	}
	for _, tc := range cases {
		if got := IsCancelled(tc.err); got != tc.cancelled {
			t.Errorf("%s: IsCancelled = %v, want %v", tc.name, got, tc.cancelled)
		}
	}
}
