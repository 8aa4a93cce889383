package registry

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Fault injection for the Monte-Carlo kernel — the robustness test
// surface. The chaos suite (internal/serve) uses it to stand in for the
// failures a long-running planning service must contain: slow kernels that
// outlive request deadlines, estimators that error, and estimators that
// panic outright. The hook sits inside the estimate cache's single-flight
// compute, so every injected fault exercises exactly the production
// failure path: memo drop-on-failure, evaluator panic recovery and
// budget-token release.
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
}

// KernelFault is what an injection hook asks a kernel invocation to suffer,
// applied in field order: sleep Delay (abandoned early, with the context's
// error, if the evaluation context fires first), then panic with Panic if
// non-empty, then fail with Err if non-nil. The zero value is a no-op.
type KernelFault struct {
	Delay time.Duration
	Panic string
	Err   error
}

// kernelFaultHook holds the installed hook; nil means fault injection off.
var kernelFaultHook atomic.Pointer[func(KernelCall) KernelFault]

// SetKernelFault installs hook as the process-wide kernel fault injector
// (nil uninstalls). The hook runs inside the estimate cache's single-flight
// compute, on whichever evaluation goroutine owns the computation, and must
// be safe for concurrent calls. Test-only: pair every install with a
// deferred SetKernelFault(nil).
func SetKernelFault(hook func(KernelCall) KernelFault) {
	if hook == nil {
		kernelFaultHook.Store(nil)
		return
	}
	kernelFaultHook.Store(&hook)
}

// injectKernelFault consults the installed hook (if any) for the given call
// and applies the fault it returns. Returning an error — the context's,
// during an interrupted delay, or the fault's own — fails the kernel
// computation exactly as a real estimator failure would.
func injectKernelFault(ctx context.Context, call KernelCall) error {
	hp := kernelFaultHook.Load()
	if hp == nil {
		return nil
	}
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
	return f.Err
}
