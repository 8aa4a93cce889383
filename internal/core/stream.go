package core

import (
	"context"
	"sync"
)

// StreamJob couples a job with the caller's stable index, so results of a
// pulled stream can be correlated back without materializing a job slice.
type StreamJob struct {
	// Index is the caller's position for this job; emit echoes it.
	Index int
	// Job is the work itself.
	Job Job
}

// streamEntry is the single-flight slot of one dedup key: the first puller
// of the key evaluates, publishes res and closes done; later pullers wait.
type streamEntry struct {
	done chan struct{}
	res  JobResult
}

// EvaluateStreamCtx is the evaluator: jobs are drawn from next one at a
// time — never held as a slice — evaluated concurrently on the shared
// parallelism budget, and handed to emit as they complete. Workers beyond the
// caller's own goroutine come from that budget, so suite-level curve workers
// and the intra-curve shards they spawn (parallel curve sampling, Monte-Carlo
// trials) compose without oversubscribing the machine; parallelism caps the
// suite-level workers on top of it (≤ 0 means no extra cap). emit receives
// each yielded job's Index exactly once and may be called concurrently for
// distinct indices; next is called under an internal lock, in stream order,
// so a CellSet-style sequential iterator is a valid source. A failing or
// panicking job yields an error result without aborting the rest — per-curve
// error isolation, so one bad scenario in a suite cannot take down the sweep.
//
// Jobs carrying equal non-empty Keys coalesce single-flight: pulls are
// serialized in stream order, so the representative of a key is always its
// earliest index, and its curve is relabeled with each later duplicate's own
// name and marked Deduped. Duplicates of a failed representative evaluate
// individually, so their errors carry their own names exactly as without
// dedup. Results are bit-identical with and without dedup at any
// parallelism: the keys promise identical curves and every model this module
// builds is deterministic. Workers waiting on an in-flight representative
// cannot deadlock: the representative is always owned by a live worker
// (evaluateOne converts panics to error results before the slot publishes).
//
// Cancellation still yields deterministic, complete accounting: every job the
// stream yields is emitted exactly once. Once ctx is done, workers stop
// evaluating and instead drain the remainder of the stream, emitting a
// cancelled result (error wrapping ctx.Err()) per job — cheap pull-and-tag,
// no model work. Jobs evaluated before the cancellation are bit-identical to
// an uncancelled run's. A duplicate waiting on an in-flight representative
// abandons the wait when ctx fires and is emitted cancelled; the
// representative's own evaluation finishes on its worker regardless, so the
// single-flight slot always publishes and no waiter can be stranded. Returns
// ctx.Err(). Budget tokens return to the pool on every path.
func EvaluateStreamCtx(ctx context.Context, next func() (StreamJob, bool), parallelism int, emit func(index int, res JobResult)) error {
	var mu sync.Mutex
	byKey := make(map[string]*streamEntry)

	type task struct {
		sj    StreamJob
		entry *streamEntry // this task evaluates the key's representative
		dupOf *streamEntry // this task duplicates an earlier key
	}
	pull := func(coalesce bool) (task, bool) {
		mu.Lock()
		defer mu.Unlock()
		sj, ok := next()
		if !ok {
			return task{}, false
		}
		k := sj.Job.Key
		if k == "" || !coalesce {
			return task{sj: sj}, true
		}
		if e, ok := byKey[k]; ok {
			return task{sj: sj, dupOf: e}, true
		}
		e := &streamEntry{done: make(chan struct{})}
		byKey[k] = e
		return task{sj: sj, entry: e}, true
	}

	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	step := func() bool {
		if cancelled() {
			// Drain mode: tag-and-emit the rest of the stream without
			// evaluating, registering no new single-flight entries (a
			// cancelled representative would strand nothing, but would
			// also publish nothing useful).
			t, ok := pull(false)
			if !ok {
				return false
			}
			emit(t.sj.Index, cancelResult(t.sj.Job.Name, ctx.Err()))
			return true
		}
		t, ok := pull(true)
		if !ok {
			return false
		}
		switch {
		case t.entry != nil:
			res := evaluateOne(ctx, t.sj.Job)
			t.entry.res = res
			close(t.entry.done)
			emit(t.sj.Index, res)
		case t.dupOf != nil:
			select {
			case <-t.dupOf.done:
			case <-done:
				emit(t.sj.Index, cancelResult(t.sj.Job.Name, ctx.Err()))
				return true
			}
			rep := t.dupOf.res
			if rep.Err != nil {
				// The representative failed: evaluate this duplicate
				// individually so its error carries its own name.
				emit(t.sj.Index, evaluateOne(ctx, t.sj.Job))
				return true
			}
			curve := rep.Curve
			curve.Name = t.sj.Job.Name
			recordDedup(ctx, t.sj.Job.Name)
			emit(t.sj.Index, JobResult{Name: t.sj.Job.Name, Curve: curve, Deduped: true})
		default:
			emit(t.sj.Index, evaluateOne(ctx, t.sj.Job))
		}
		return true
	}
	// The stream length is unknown, so the worker count is sized to the
	// budget alone; workers that find the stream dry exit immediately.
	SharedBudget().spread(parallelism, func(int, int) {
		for step() {
		}
	})
	return ctx.Err()
}
