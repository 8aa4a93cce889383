package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmlscale/internal/resilience"
)

// Fault injection for the Monte-Carlo kernel — the robustness test
// surface. The chaos suite (internal/serve) uses it to stand in for the
// failures a long-running planning service must survive: slow kernels that
// outlive request deadlines, estimators that error transiently, and
// estimators that panic outright. The hook sits inside the estimate cache's
// single-flight compute, so every injected fault exercises exactly the
// production failure path: memo drop-on-failure, evaluator panic recovery,
// budget-token release — and, for transient faults, the retry policy.
//
// The hook is test-only by convention: production code never installs one,
// and the fast path is a single atomic pointer load that branches away when
// nil.

// KernelCall identifies one Monte-Carlo kernel invocation — the same
// coordinates as the estimate cache key, so a hook can target one cell of
// one grid by fingerprint and leave its siblings alone.
type KernelCall struct {
	// Fingerprint is the FNV half of the degree-sequence fingerprint
	// (memo.HashInt32s), stable across processes and runs; Mix is the
	// SplitMix half, completing the cache key for checkpoint round-trips.
	Fingerprint uint64
	Mix         uint64
	// Vertices is the degree-sequence length.
	Vertices int
	// Workers is the worker count whose maxᵢEᵢ is being estimated.
	Workers int
	// Trials and Seed are the sampling parameters.
	Trials int
	Seed   int64
	// Attempt is how many times these exact coordinates were already
	// attempted while the current hook has been installed (0 on the
	// first), so a hook can script "fail N times then succeed"
	// deterministically: `if call.Attempt < N { return fault }`. The
	// counter persists across retries and re-evaluations; SetKernelFault
	// resets it. Zero when no hook is installed.
	Attempt int
}

// coordinates strips the attempt counter, leaving the map key the
// injector counts attempts under.
func (c KernelCall) coordinates() KernelCall {
	c.Attempt = 0
	return c
}

// KernelFault is what an injection hook asks a kernel invocation to suffer,
// applied in field order: sleep Delay (abandoned early, with the context's
// error, if the evaluation context fires first), then panic with Panic if
// non-empty, then fail with Err if non-nil. Transient marks Err as a
// retryable fault (resilience.MarkTransient), so the kernel retry policy
// re-attempts it; without it the error is permanent and fails the cell
// immediately, exactly as before. The zero value is a no-op.
type KernelFault struct {
	Delay     time.Duration
	Panic     string
	Err       error
	Transient bool
}

// kernelFaultHook holds the installed hook; nil means fault injection off.
var kernelFaultHook atomic.Pointer[func(KernelCall) KernelFault]

// kernelAttempts counts, per kernel-call coordinates, how many attempts
// the installed hook has seen — the source of KernelCall.Attempt. Only
// touched while a hook is installed, so production kernels never pay for
// the lock.
var (
	kernelAttemptsMu sync.Mutex
	kernelAttempts   map[KernelCall]int
)

// SetKernelFault installs hook as the process-wide kernel fault injector
// (nil uninstalls) and resets the per-call attempt counters. The hook runs
// inside the estimate cache's single-flight compute, on whichever
// evaluation goroutine owns the computation, and must be safe for
// concurrent calls. Test-only: pair every install with a deferred
// SetKernelFault(nil).
func SetKernelFault(hook func(KernelCall) KernelFault) {
	kernelAttemptsMu.Lock()
	kernelAttempts = nil
	kernelAttemptsMu.Unlock()
	if hook == nil {
		kernelFaultHook.Store(nil)
		return
	}
	kernelFaultHook.Store(&hook)
}

// nextAttempt returns — and advances — the attempt number for the call's
// coordinates.
func nextAttempt(call KernelCall) int {
	key := call.coordinates()
	kernelAttemptsMu.Lock()
	defer kernelAttemptsMu.Unlock()
	if kernelAttempts == nil {
		kernelAttempts = make(map[KernelCall]int)
	}
	n := kernelAttempts[key]
	kernelAttempts[key] = n + 1
	return n
}

// injectKernelFault consults the installed hook (if any) for the given call
// and applies the fault it returns. Returning an error — the context's,
// during an interrupted delay, or the fault's own — fails the kernel
// computation exactly as a real estimator failure would; a Transient fault
// returns a retryable error the kernel retry policy re-attempts.
func injectKernelFault(ctx context.Context, call KernelCall) error {
	hp := kernelFaultHook.Load()
	if hp == nil {
		return nil
	}
	call.Attempt = nextAttempt(call)
	f := (*hp)(call)
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if f.Panic != "" {
		panic(fmt.Sprintf("registry: injected kernel panic: %s", f.Panic))
	}
	if f.Transient {
		return resilience.MarkTransient(f.Err)
	}
	return f.Err
}
