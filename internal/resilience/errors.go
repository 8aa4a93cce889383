// Package resilience classifies the errors the evaluation spine contains:
// IsCancelled tells a cancelled or expired run apart from a failed one, so
// the cells it finished render as a partial result rather than failures.
//
// Nothing in the module retries. The one call that prices a graph cell,
// the Monte-Carlo kernel fill (internal/registry), fails only on bad input
// or cancellation, and neither would succeed on a second attempt.
package resilience

import (
	"context"
	"errors"
)

// IsCancelled reports whether err wraps a context cancellation or deadline
// expiry.
func IsCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TotalRetries returns 0, the number of retries the module takes. It stays
// only because bench/probe reads it into its resilience.retried metric.
func TotalRetries() int64 { return 0 }
