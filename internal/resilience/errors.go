// Package resilience is the fault-recovery layer of the evaluation spine:
// a transient-error marker, and the retry policy and circuit breaker of
// the Monte-Carlo kernel fill (internal/registry), the one place transient
// errors arise. The policy retries with capped exponential backoff and
// deterministic jitter, inside the fill's single flight, so every caller
// waiting on the same estimate shares one set of retries, for sweeps and
// plans alike, and a shared process budget keeps a storm of failing
// kernels from amplifying load. The breaker, when the context carries one
// (WithBreaker), fails fills fast while the kernel keeps failing; every
// cell that needs no fill answers as usual.
package resilience

import (
	"context"
	"errors"
)

// Transient is the class marker for errors worth retrying. It is a
// sentinel, not a wrapper: MarkTransient attaches it to a cause, and
// errors.Is(err, resilience.Transient) — or IsTransient — detects it
// anywhere in a wrapped chain. Fault injection (registry.KernelFault
// {Transient: true}) produces transient errors; everything else in this
// module is deterministic, so unmarked errors default to permanent.
var Transient = errors.New("resilience: transient fault")

// ErrKernelUnavailable is what a kernel fill returns, without attempting
// the kernel, while the circuit breaker its context carries is open. It is
// permanent, so nothing retries it: the cell that needed the fill fails
// with it, and cells that need no fill answer as usual.
var ErrKernelUnavailable = errors.New("resilience: kernel unavailable: circuit breaker open")

// transientError marks its cause as transient while preserving the chain.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Is makes errors.Is(err, Transient) true for any marked error without
// string comparison or sentinel identity in the cause chain.
func (e *transientError) Is(target error) bool { return target == Transient }

// MarkTransient wraps err as transient. nil stays nil, and marking an
// already-transient error is harmless (the marker is idempotent under
// errors.Is).
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err should be retried: marked transient and
// not a cancellation. Cancellation dominates: a transient-marked error
// that wraps the caller's context error is not transient, so an abandoned
// run never spins in a backoff loop.
func IsTransient(err error) bool {
	return errors.Is(err, Transient) && !IsCancelled(err)
}

// IsCancelled reports whether err wraps a context cancellation or deadline
// expiry.
func IsCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
