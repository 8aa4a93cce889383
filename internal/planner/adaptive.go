package planner

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/scenario"
	"dmlscale/internal/units"
)

// Options selects the planner's adaptive behaviors. The zero value is the
// exhaustive pass: every cell evaluated, no constraints, no refinement.
type Options struct {
	// Prune skips cells whose optimistic cost×time bound is already
	// strictly dominated by evaluated plans. The final frontier — and
	// every evaluated plan on it — is identical to the exhaustive run's;
	// only provably-dominated cells are skipped, and they are reported as
	// Pruned plans carrying their bound.
	Prune bool
	// RefineRounds re-subdivides the numeric sweep axes (bandwidth, worker
	// bound) adjacent to frontier cells for up to this many rounds after
	// the coarse pass, planting off-grid candidates where the frontier
	// suggests the objective landscape is interesting.
	RefineRounds int
	// MaxCost, when positive, constrains recommendations to configurations
	// costing at most this much; cells whose optimistic bound already
	// exceeds it are pruned outright, and evaluated plans with no
	// configuration under it are marked Infeasible.
	MaxCost float64
	// MaxTimeSeconds is the analogous wall-time budget, in seconds.
	MaxTimeSeconds float64
}

// validate rejects knobs no run can honor: negative refinement rounds and a
// negative or NaN budget. Every front end (dmls-plan, /v1/plan, the facade)
// passes its knobs through here.
func (o Options) validate() error {
	switch {
	case o.RefineRounds < 0:
		return fmt.Errorf("planner: negative refinement rounds %d", o.RefineRounds)
	case !(o.MaxCost >= 0):
		return fmt.Errorf("planner: max cost %g is negative or NaN", o.MaxCost)
	case !(o.MaxTimeSeconds >= 0):
		return fmt.Errorf("planner: max time %gs is negative or NaN", o.MaxTimeSeconds)
	}
	return nil
}

// adaptive reports whether any option changes the exhaustive pass.
func (o Options) adaptive() bool {
	return o.Prune || o.RefineRounds > 0 || o.constrained()
}

// constrained reports whether a cost or time budget is set.
func (o Options) constrained() bool {
	return o.MaxCost > 0 || o.MaxTimeSeconds > 0
}

// PlanSuiteCtx plans every cell of the suite concurrently on the shared
// parallelism budget (core.SetParallelism, default GOMAXPROCS); parallelism
// caps the suite-level workers within that budget, ≤ 0 meaning no extra cap.
// objective overrides the suite's own objective field when non-empty.
// Scenario errors isolate: a bad grid point yields a Plan with Err set,
// ranked after every successful plan, and the rest of the suite completes.
//
// With the zero Options it runs the exhaustive pass and the stats only count
// plans; with pruning, constraints or refinement it runs the streaming
// adaptive search:
//
//  1. Every cell's optimistic (time, cost) bound is computed from the
//     registry's monotone bound hooks — catalog resolution only, no model
//     construction, no Monte-Carlo kernel.
//  2. Cells are planned best-bound-first on the shared parallelism budget,
//     feeding an incremental Pareto frontier; a cell whose bound is already
//     strictly dominated (or provably over budget) is pruned without ever
//     building its model.
//  3. Frontier-adjacent numeric axes are re-subdivided for RefineRounds
//     rounds, planning off-grid candidates the declared grid stepped over.
//
// The pruning is exact, not heuristic: bounds lower-bound every
// configuration of their cell, and only strict domination prunes, so the
// evaluated frontier is identical to the exhaustive one at any parallelism
// (see Frontier). The report is identical at any parallelism too: a
// parallel pass may evaluate a cell before the frontier that prunes it has
// formed, so each pass ends by settling its prune decisions on the ones a
// serial pass makes (see settlePrunes).
//
// Cancellation yields a deterministic partial report: every cell still gets
// exactly one plan — cells planned before ctx fired are bit-identical to an
// uncancelled run's, the rest carry an error wrapping ctx.Err() (counted in
// EvalStats.Cancelled and ranked with the failures) — and the returned
// error is ctx's, so callers can tell an abandoned run from an invalid
// suite while still rendering what completed.
func PlanSuiteCtx(ctx context.Context, s scenario.Suite, objective Objective, parallelism int, opts Options) (Report, scenario.EvalStats, error) {
	objective, err := resolveObjective(s, objective)
	if err != nil {
		return Report{}, scenario.EvalStats{}, err
	}
	if err := opts.validate(); err != nil {
		return Report{}, scenario.EvalStats{}, err
	}
	cs, err := s.Cells()
	if err != nil {
		return Report{}, scenario.EvalStats{}, err
	}
	n := cs.Len()

	ctx, span := obs.Start(ctx, "suite")
	span.SetString("suite", s.Name)
	span.SetInt("cells", int64(n))
	defer span.End()
	var kernelNanos atomic.Int64
	ctx = registry.WithKernelTime(ctx, &kernelNanos)

	var plans []Plan
	var stats scenario.EvalStats
	curves := newCurveStore(cs)
	if !opts.adaptive() {
		plans = make([]Plan, n)
		ran := core.ForEachCtx(ctx, n, parallelism, func(i int) {
			c := cs.At(i)
			plans[i] = planOne(ctx, c.Scenario, curves.model(c.Model))
		})
		for i := ran; i < n; i++ {
			plans[i] = cancelledPlan(cs.At(i).Scenario, ctx.Err())
		}
	} else {
		var cells []scenario.Cell
		plans, cells, stats = adaptivePass(ctx, cs, curves, parallelism, opts)
		if opts.RefineRounds > 0 && ctx.Err() == nil {
			plans = refineFrontier(ctx, plans, cells, curves, parallelism, opts, &stats)
		}
	}
	stats.PricedPoints = curves.priced()

	stats.Scenarios = len(plans)
	for i := range plans {
		switch {
		case plans[i].Err != nil && resilience.IsCancelled(plans[i].Err):
			stats.Cancelled++
		case plans[i].Err != nil:
			stats.Failed++
		case !plans[i].Pruned:
			stats.Evaluated++
		}
		stats.PlanTime += plans[i].PlanTime
		if !plans[i].Pruned {
			stats.SlowestCells = scenario.RecordCellTiming(stats.SlowestCells,
				scenario.CellTiming{Name: plans[i].Scenario.Name, Total: plans[i].PlanTime})
		}
	}
	stats.KernelComputeTime = time.Duration(kernelNanos.Load())
	markPareto(plans)
	rankPlans(plans, objective)
	return Report{Suite: s.Name, Objective: objective, Plans: plans}, stats, ctx.Err()
}

// adaptivePass runs phases 1 and 2: bound every cell, then plan them
// best-bound-first against an incremental frontier, pricing curves through
// curves. It returns the plans, the cell coordinates position-aligned with
// them (refinement needs the swept axis values and model ids), and the
// stats with Pruned filled.
func adaptivePass(ctx context.Context, cs *scenario.CellSet, curves *curveStore, parallelism int, opts Options) ([]Plan, []scenario.Cell, scenario.EvalStats) {
	n := cs.Len()
	cells := make([]scenario.Cell, n)
	bounds := make([]cellBound, n)
	boundStart := time.Now()
	bctx, bspan := obs.Start(ctx, "bound-pass")
	bspan.SetInt("cells", int64(n))
	core.ForEachCtx(bctx, n, parallelism, func(i int) {
		cells[i] = cs.At(i)
		bounds[i] = boundFor(cells[i].Scenario)
	})
	bspan.End()
	boundTime := time.Since(boundStart)
	if err := ctx.Err(); err != nil {
		// Cancelled during the (cheap) bound pass: report every cell as
		// cancelled. Cell expansion is catalog work, so re-materializing the
		// coordinates serially costs microseconds per cell.
		plans := make([]Plan, n)
		for i := range plans {
			cells[i] = cs.At(i)
			plans[i] = cancelledPlan(cells[i].Scenario, err)
		}
		return plans, cells, scenario.EvalStats{BoundTime: boundTime}
	}

	// Best-bound-first order: bounded cells by ascending (time, cost) so
	// likely-frontier cells evaluate early and the frontier gains pruning
	// power fast; unbounded cells (which never prune anyway) keep suite
	// order after them. Index is the final tie-break, so the order is
	// deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := bounds[order[x]], bounds[order[y]]
		if a.ok != b.ok {
			return a.ok
		}
		if a.ok {
			if a.time != b.time {
				return a.time < b.time
			}
			if a.cost != b.cost {
				return a.cost < b.cost
			}
		}
		return order[x] < order[y]
	})

	var frontier Frontier
	plans := make([]Plan, n)
	ran := core.ForEachCtx(ctx, n, parallelism, func(k int) {
		i := order[k]
		plans[i] = planCell(ctx, cells[i], bounds[i], curves, &frontier, opts)
	})
	for _, i := range order[ran:] {
		plans[i] = cancelledPlan(cells[i].Scenario, ctx.Err())
	}
	pruned := settlePrunes(plans, cells, bounds, order[:ran], &Frontier{}, opts)
	return plans, cells, scenario.EvalStats{Pruned: pruned, BoundTime: boundTime}
}

// planCell plans one cell under the adaptive regime: prune on a provably
// over-budget or frontier-dominated bound, otherwise evaluate and offer the
// optimum to the frontier.
func planCell(ctx context.Context, c scenario.Cell, b cellBound, curves *curveStore, frontier *Frontier, opts Options) Plan {
	if b.ok {
		if b.overBudget(opts) {
			recordPrune(ctx, c.Scenario.Name, "over-budget")
			p := prunedPlan(c, b)
			p.Infeasible = true
			p.Notice = "pruned: optimistic bound exceeds the cost/time budget"
			return p
		}
		// Prune when every interval corner of the bound is strictly
		// dominated — the proof the cell's optimum is too (see
		// cellBound.dominated). The margin shrinks each corner, so float
		// rounding can only make pruning harder, never discard a cell
		// that could have competed.
		if opts.Prune && b.dominated(frontier) {
			recordPrune(ctx, c.Scenario.Name, "dominated")
			return prunedPlan(c, b)
		}
	}
	p := planOneOpts(ctx, c.Scenario, curves.model(c.Model), opts)
	if frontierEligible(&p) {
		frontier.Insert(float64(p.Optimal.Time), p.Optimal.Cost)
	}
	return p
}

// settlePrunes walks a pass's plans in planning order (visit) and makes
// each the plan a serial pass reports; frontier holds what a serial pass
// starts from. A serial pass prunes every cell a parallel one does: a
// parallel worker sees part of the serial frontier plus optima of cells
// that frontier already dominates, and those prune nothing it would not. A
// parallel pass can only miss prunes, evaluating a cell before the
// frontier point that prunes it exists; such a cell becomes its pruned
// plan here. It returns the pass's prune count.
func settlePrunes(plans []Plan, cells []scenario.Cell, bounds []cellBound, visit []int, frontier *Frontier, opts Options) int {
	pruned := 0
	for _, i := range visit {
		p := &plans[i]
		if !p.Pruned && opts.Prune && bounds[i].dominated(frontier) {
			*p = prunedPlan(cells[i], bounds[i])
		}
		if p.Pruned {
			pruned++
		} else if frontierEligible(p) {
			frontier.Insert(float64(p.Optimal.Time), p.Optimal.Cost)
		}
	}
	return pruned
}

// recordPrune emits an instant span marking a cell skipped on its bound —
// visible in traces as the cells the adaptive pass never paid for. Free
// when tracing is off.
func recordPrune(ctx context.Context, name, reason string) {
	_, sp := obs.Start(ctx, "prune")
	sp.SetString("cell", name)
	sp.SetString("reason", reason)
	sp.End()
}

// prunedPlan reports a cell skipped on its bound, carrying the resolution
// the bound pass already did so the report needs no model work at all.
func prunedPlan(c scenario.Cell, b cellBound) Plan {
	return Plan{
		Scenario:         c.Scenario,
		Family:           b.family,
		ConvergenceAware: true,
		Rule:             b.rule,
		CostRate:         b.rate,
		Pruned:           true,
		Bound:            Point{Time: units.Seconds(b.time), Cost: b.cost},
		Notice:           "pruned: optimistic bound dominated by evaluated plans",
	}
}

// planOneOpts plans one scenario and, when a budget is set, moves the
// recommendation to the best configuration inside it: minimum time among
// feasible points, ties to cheaper then fewer machines. A convergence-aware
// plan with no feasible point keeps its unconstrained optimum for reference
// and is marked Infeasible. Constraints only bind convergence-aware plans —
// fallback times are per-iteration and not comparable to a wall-clock
// budget.
func planOneOpts(ctx context.Context, sc scenario.Scenario, curve *modelCurve, opts Options) Plan {
	p := planOne(ctx, sc, curve)
	if p.Err != nil || !p.ConvergenceAware || !opts.constrained() {
		return p
	}
	best := -1
	for i, pt := range p.Curve {
		if opts.MaxTimeSeconds > 0 && float64(pt.Time) > opts.MaxTimeSeconds {
			continue
		}
		if opts.MaxCost > 0 && pt.Cost > opts.MaxCost {
			continue
		}
		// The curve ascends in workers, so replacing only on strict
		// improvement keeps the fewest machines among ties.
		if best < 0 || pt.Time < p.Curve[best].Time ||
			(pt.Time == p.Curve[best].Time && pt.Cost < p.Curve[best].Cost) {
			best = i
		}
	}
	if best < 0 {
		p.Infeasible = true
		p.Notice = "no configuration meets the cost/time budget; unconstrained optimum shown"
		return p
	}
	p.Optimal = p.Curve[best]
	return p
}
