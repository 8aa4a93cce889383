package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dmlscale/internal/obs"
	"dmlscale/internal/resilience"
)

// Job is one curve to evaluate: a model builder plus the worker counts to
// sample, with speedups relative to one worker. BuildCtx runs inside the
// evaluation pool, so expensive construction (graph generation, Monte-Carlo
// estimation) parallelizes along with curve sampling.
type Job struct {
	// Name labels the job in results; it also labels errors.
	Name string
	// BuildCtx constructs the model. It runs once, in the pool, and receives
	// the evaluation context so construction-time work (Monte-Carlo kernels,
	// cache waits) can observe cancellation.
	BuildCtx func(ctx context.Context) (Model, error)
	// Workers are the counts to sample.
	Workers []int
}

// JobResult is one evaluated curve, or the error that stopped it. Results
// keep the order of the jobs they came from.
type JobResult struct {
	// Name echoes the job name.
	Name string
	// Curve holds the sampled points when Err is nil.
	Curve Curve
	// Err records why this job failed; other jobs are unaffected. A job
	// abandoned by cancellation carries an error wrapping the context's —
	// errors.Is(Err, context.Canceled/DeadlineExceeded) distinguishes
	// "request abandoned" from "model broken".
	Err error
	// BuildTime and SampleTime split the job's wall time between model
	// construction (Build: graph generation, catalog resolution) and curve
	// sampling (time evaluation, Monte-Carlo estimation).
	BuildTime  time.Duration
	SampleTime time.Duration
}

// IsCancelled reports whether the result records a context cancellation or
// deadline expiry rather than a model failure.
func (r JobResult) IsCancelled() bool {
	return resilience.IsCancelled(r.Err)
}

// CancelledResult is the result of a job abandoned before (or during)
// evaluation because the context was done: callers fill the slots of jobs a
// cancellation never reached with it, so every job still gets one result.
func CancelledResult(name string, err error) JobResult {
	return JobResult{Name: name, Err: fmt.Errorf("core: job %q cancelled: %w", name, err)}
}

// ForEachCtx runs body(i) for every i in [0, n), work-stealing indices over
// an atomic counter on the caller's goroutine plus as many extra workers as
// the shared parallelism budget grants. parallelism caps the workers within
// that budget (≤ 0 means no extra cap — it cannot raise concurrency above the
// budget). Bodies that write results by index are deterministic at any
// parallelism. A panic in any body is re-raised on the caller after all
// indices settle and the tokens return to the pool (see Budget.spread).
//
// Once ctx is done, workers stop pulling new indices; bodies already running
// finish — they are never preempted. Indices are pulled in ascending order,
// so the ones that ran are always a prefix [0, m) of the range: ForEachCtx
// returns m, and callers that must fill every slot complete [m, n)
// themselves. m is n unless ctx fired.
func ForEachCtx(ctx context.Context, n, parallelism int, body func(i int)) int {
	if n <= 0 {
		return 0
	}
	workers := n
	if parallelism > 0 {
		workers = min(parallelism, n)
	}
	done := ctx.Done()
	var next atomic.Int64
	SharedBudget().spread(workers, func(int, int) {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(i)
		}
	})
	return min(int(next.Load()), n)
}

// EvaluateOne runs a single job, converting panics into errors so a broken
// model cannot kill the pool that fans jobs out (ForEachCtx): a failing or
// panicking job yields an error result and leaves the others alone. A done
// context short-circuits to a cancelled result, and a panic that carries a
// context error — the idiom model closures use to surface cancellation from
// inside context-blind Model methods — unwraps to a clean cancelled result
// instead of a "panicked" error. A job is evaluated exactly once; nothing
// retries it.
func EvaluateOne(ctx context.Context, job Job) (res JobResult) {
	res.Name = job.Name
	// The cell span parents everything the job does — including kernel
	// work the model runs at sample time through the build-captured ctx —
	// so traces nest suite→cell→kernel. Build/sample phase spans are
	// timing children only; their contexts are not propagated, because the
	// model closure outlives the build phase. All spans end in the recover
	// defer so a panicking (or cancelled-by-panic) job leaks none.
	ctx, span := obs.Start(ctx, "cell")
	span.SetString("cell", job.Name)
	var bspan, sspan *obs.Span
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && resilience.IsCancelled(err) {
				res = CancelledResult(job.Name, err)
			} else if err, ok := r.(error); ok {
				// Wrap, don't format: the panic idiom carries typed errors
				// (kernel failures, injected faults) that callers still
				// match with errors.Is.
				res.Err = fmt.Errorf("core: job %q panicked: %w", job.Name, err)
			} else {
				res.Err = fmt.Errorf("core: job %q panicked: %v", job.Name, r)
			}
		}
		bspan.End()
		sspan.End()
		span.SetError(res.Err)
		span.End()
	}()
	if err := ctx.Err(); err != nil {
		return CancelledResult(job.Name, err)
	}
	if job.BuildCtx == nil {
		res.Err = fmt.Errorf("core: job %q has no builder", job.Name)
		return res
	}
	start := time.Now()
	_, bspan = obs.Start(ctx, "build")
	model, err := job.BuildCtx(ctx)
	bspan.End()
	res.BuildTime = time.Since(start)
	if err != nil {
		if resilience.IsCancelled(err) {
			return CancelledResult(job.Name, err)
		}
		res.Err = fmt.Errorf("core: job %q: %w", job.Name, err)
		return res
	}
	start = time.Now()
	_, sspan = obs.Start(ctx, "sample")
	curve, err := model.SpeedupCurve(job.Workers)
	sspan.End()
	res.SampleTime = time.Since(start)
	if err != nil {
		if resilience.IsCancelled(err) {
			return CancelledResult(job.Name, err)
		}
		res.Err = fmt.Errorf("core: job %q: %w", job.Name, err)
		return res
	}
	res.Curve = curve
	return res
}
