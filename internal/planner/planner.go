// Package planner is the decision-making layer on top of the evaluation
// engine: where a sweep reports how every configuration scales per
// iteration, the planner answers the question a practitioner actually asks —
// "which configuration trains to accuracy fastest, and at what cost?"
//
// For every scenario it composes the registry's per-iteration model
// (registry.BuildIterationModel) with the scenario's convergence block
// (registry.ConvergenceSpec) through convergence.TradeoffModel, yielding
// time-to-accuracy as a function of the worker count. It then finds the
// optimal cluster size over the scenario's worker range, prices the run with
// the node's hourly cost rate, marks the suite's cost×time Pareto frontier,
// and ranks every cell by a selectable objective (time-to-accuracy, cost, or
// frontier-first).
//
// A scenario without a convergence block — or from a family with no
// iteration/batch notion, like the graph-inference families — degrades
// gracefully to per-iteration ranking, with a one-line notice explaining the
// downgrade. Suite planning fans out through core.ForEachCtx, the fan-out a
// sweep uses too, so ranking a 100-cell grid parallelizes exactly like a
// sweep, and the output is bit-identical at any parallelism. Model
// construction goes through the registry's process-wide caches, so planner
// probes — including the per-iteration fallbacks that price graph-inference
// cells — reuse the Monte-Carlo kernel estimates a sweep (or an earlier
// planning pass) already computed; registry.SnapshotCaches shows the hits.
package planner

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"dmlscale/internal/convergence"
	"dmlscale/internal/obs"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/scenario"
	"dmlscale/internal/units"
)

// Objective selects how a report ranks its plans.
type Objective string

const (
	// ObjectiveTTA ranks by predicted time at the optimum — the default.
	ObjectiveTTA Objective = "tta"
	// ObjectiveCost ranks by predicted cost at the optimum.
	ObjectiveCost Objective = "cost"
	// ObjectivePareto ranks the cost×time frontier first, then the
	// dominated cells, each tier by time.
	ObjectivePareto Objective = "pareto"
)

// ParseObjective resolves an objective name; empty means tta. The accepted
// names come from scenario.Objectives() — the single catalog the suite
// schema validates against — so a suite that loads is a suite that plans.
func ParseObjective(name string) (Objective, error) {
	if name == "" {
		return ObjectiveTTA, nil
	}
	if slices.Contains(scenario.Objectives(), name) {
		return Objective(name), nil
	}
	return "", fmt.Errorf("planner: unknown objective %q (known: %s)",
		name, strings.Join(scenario.Objectives(), ", "))
}

// Point is one sampled configuration of a plan.
type Point struct {
	// Workers is the cluster size.
	Workers int
	// Iterations is the predicted iterations to accuracy; 0 for
	// per-iteration fallback plans, which predict no iteration count.
	Iterations float64
	// Time is the predicted wall time: time-to-accuracy for
	// convergence-aware plans, one iteration for fallback plans.
	Time units.Seconds
	// Cost is Workers × Time × the node's hourly rate, in the catalog's
	// currency units; 0 on unpriced nodes.
	Cost float64
}

// Plan is the planner's answer for one scenario.
type Plan struct {
	// Scenario is the expanded scenario the plan answers for.
	Scenario scenario.Scenario
	// Family is the canonical workload family, when it resolves.
	Family string
	// ConvergenceAware is true when the plan optimizes time-to-accuracy;
	// false means it fell back to per-iteration ranking (see Notice).
	ConvergenceAware bool
	// Rule echoes the convergence rule of a convergence-aware plan.
	Rule string
	// Notice explains a fallback plan in one line.
	Notice string
	// CostRate is the node's hourly cost rate; 0 means unpriced.
	CostRate float64
	// Optimal is the recommended configuration: the worker count in
	// [1, max_workers] minimizing predicted time, ties to fewer machines.
	Optimal Point
	// Curve samples every worker count in the scenario's range.
	Curve []Point
	// Pareto marks membership of the suite's cost×time frontier
	// (convergence-aware plans only; fallback times are per-iteration and
	// would not be comparable).
	Pareto bool
	// Pruned marks a cell the adaptive planner skipped without building
	// its model: the cell's optimistic bound (see Bound) was strictly
	// dominated by already-evaluated plans, or provably outside the run's
	// budget. Pruned plans carry no curve and no optimum.
	Pruned bool
	// Bound is a pruned cell's optimistic (time, cost) utopia point — the
	// corner no configuration of the cell could have beaten.
	Bound Point
	// Refined marks a plan synthesized by frontier refinement — an
	// off-grid subdivision of a numeric sweep axis — rather than declared
	// by the suite.
	Refined bool
	// Infeasible marks a convergence-aware plan none of whose
	// configurations meets the run's cost/time budget; Optimal still holds
	// the unconstrained optimum for reference.
	Infeasible bool
	// Rank is the plan's 1-based position under the report's objective.
	Rank int
	// Err records why planning failed; other plans are unaffected.
	Err error
	// PlanTime is the wall time spent planning this cell — model
	// construction, curve pricing, optimum search. Pruned cells carry the
	// (tiny) bound-check time; cancelled stubs carry zero.
	PlanTime time.Duration
}

// Report is a ranked set of plans for one suite.
type Report struct {
	// Suite echoes the suite name.
	Suite string
	// Objective is the ranking objective the report used.
	Objective Objective
	// Plans holds one plan per expanded scenario, in rank order:
	// convergence-aware plans first, then per-iteration fallbacks, then
	// failures, each tier sorted by the objective with name as the final
	// tie-break — fully deterministic at any parallelism.
	Plans []Plan
}

// PlanScenario plans a single scenario.
func PlanScenario(sc scenario.Scenario) (Plan, error) {
	p := planOne(context.Background(), sc)
	return p, p.Err
}

// cancelledPlan is the plan of a scenario abandoned by cancellation; its
// error wraps the context's, so errors.Is distinguishes it from a model
// failure.
func cancelledPlan(sc scenario.Scenario, err error) Plan {
	return Plan{Scenario: sc, Err: fmt.Errorf("planner: scenario %q cancelled: %w", sc.Name, err)}
}

// resolveObjective validates an explicit objective, or resolves the empty
// one to the suite's own (itself defaulting to tta).
func resolveObjective(s scenario.Suite, objective Objective) (Objective, error) {
	if objective == "" {
		return ParseObjective(s.Objective)
	}
	if _, err := ParseObjective(string(objective)); err != nil {
		return "", err
	}
	return objective, nil
}

// planOne builds the plan for one scenario, converting panics into errors so
// a broken model cannot take down a suite-wide planning pass. A done context
// short-circuits to a cancelled plan, and a panic carrying a context error —
// how model closures surface cancellation from inside context-blind time
// functions — unwraps to a clean cancelled plan rather than a "panicked"
// error.
func planOne(ctx context.Context, sc scenario.Scenario) (p Plan) {
	p.Scenario = sc
	start := time.Now()
	ctx, span := obs.Start(ctx, "cell")
	span.SetString("cell", sc.Name)
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && resilience.IsCancelled(err) {
				p = cancelledPlan(sc, err)
			} else if err, ok := r.(error); ok {
				// Wrap rather than flatten, so callers can still match
				// the cause with errors.Is.
				p.Err = fmt.Errorf("planner: scenario %q panicked: %w", sc.Name, err)
			} else {
				p.Err = fmt.Errorf("planner: scenario %q panicked: %v", sc.Name, r)
			}
		}
		p.PlanTime = time.Since(start)
		span.SetError(p.Err)
		span.End()
	}()
	if err := ctx.Err(); err != nil {
		return cancelledPlan(sc, err)
	}
	family, err := sc.Family()
	if err != nil {
		p.Err = err
		return p
	}
	p.Family = family
	node, err := registry.Node(sc.Hardware)
	if err != nil {
		p.Err = fmt.Errorf("planner: scenario %q: %w", sc.Name, err)
		return p
	}
	p.CostRate = node.CostPerHour

	if sc.Convergence == nil {
		return fallbackPlan(ctx, p, sc, "no convergence block: ranked by per-iteration time")
	}
	protocol, err := registry.Protocol(sc.Protocol)
	if err != nil {
		p.Err = fmt.Errorf("planner: scenario %q: %w", sc.Name, err)
		return p
	}
	iter, ok, err := registry.BuildIterationModel(family, sc.Name, sc.Workload, node, protocol)
	if err != nil {
		p.Err = fmt.Errorf("planner: scenario %q: %w", sc.Name, err)
		return p
	}
	if !ok {
		return fallbackPlan(ctx, p, sc,
			fmt.Sprintf("family %s has no iteration model: ranked by per-iteration time", family))
	}
	rule, err := sc.Convergence.IterationRule()
	if err != nil {
		p.Err = fmt.Errorf("planner: scenario %q: %w", sc.Name, err)
		return p
	}
	tm := convergence.TradeoffModel{
		Name:           sc.Name,
		IterationTime:  iter.Time,
		BaseIterations: sc.Convergence.BaseIterations,
		Rule:           rule,
		BatchGrowth:    iter.BatchGrowth,
	}
	if err := tm.Validate(); err != nil {
		p.Err = fmt.Errorf("planner: scenario %q: %w", sc.Name, err)
		return p
	}
	p.ConvergenceAware = true
	p.Rule = sc.Convergence.Rule

	at := func(n int) Point {
		t := tm.TimeToAccuracy(n)
		return Point{
			Workers:    n,
			Iterations: tm.Iterations(n),
			Time:       t,
			Cost:       runCost(p.CostRate, n, t),
		}
	}
	p.Curve, p.Optimal = curveAndOptimum(sc, at)
	return p
}

// fallbackPlan completes a plan for a scenario the planner cannot make
// convergence-aware: it ranks by the per-iteration model's own time, prices
// one iteration, and carries the notice explaining the downgrade. The
// evaluation context is bound into the model, so the Monte-Carlo kernels
// pricing graph-inference fallbacks observe cancellation (surfaced as a
// ctx-carrying panic planOne's recover unwraps).
func fallbackPlan(ctx context.Context, p Plan, sc scenario.Scenario, notice string) Plan {
	p.Notice = notice
	model, err := sc.ModelCtx(ctx)
	if err != nil {
		if resilience.IsCancelled(err) {
			return cancelledPlan(sc, err)
		}
		p.Err = err
		return p
	}
	at := func(n int) Point {
		t := model.Time(n)
		return Point{Workers: n, Time: t, Cost: runCost(p.CostRate, n, t)}
	}
	p.Curve, p.Optimal = curveAndOptimum(sc, at)
	return p
}

// curveAndOptimum samples the plan's curve over the scenario's worker range
// (1..MaxN) and finds the optimum with OptimalWorkers backed by the sampled
// points, so the search re-evaluates nothing and the recommendation is
// always one of the exported curve points. The model behind at was built
// under the scenario's worker-set hint (scenario.ModelCtx →
// registry.WithKernelWorkerSet), so for the graph families the first
// sampled point batch-fills every point's Monte-Carlo estimate in one
// common-random-numbers kernel pass and the rest of this loop reads a
// local snapshot.
func curveAndOptimum(sc scenario.Scenario, at func(n int) Point) ([]Point, Point) {
	workers := sc.Workers()
	curve := make([]Point, len(workers))
	for i, n := range workers {
		curve[i] = at(n)
	}
	optN := OptimalWorkers(func(n int) float64 { return float64(curve[n-1].Time) }, sc.MaxN())
	return curve, curve[optN-1]
}

// runCost prices a run: rate per node-hour × nodes × hours.
func runCost(rate float64, workers int, t units.Seconds) float64 {
	return rate * float64(workers) * float64(t) / 3600
}

// frontierEligible reports whether a plan competes on the cost×time
// frontier: it evaluated, optimizes time-to-accuracy, and its optimum is a
// real recommendation (not pruned away, not outside the budget).
func frontierEligible(p *Plan) bool {
	return p.Err == nil && p.ConvergenceAware && !p.Pruned && !p.Infeasible
}

// markPareto flags the plans on the suite's cost×time frontier: a
// convergence-aware plan is on the frontier when no other convergence-aware
// plan is at least as good on both axes and strictly better on one.
// Fallback plans stay off the frontier — their times are per-iteration and
// not comparable to times-to-accuracy — and so do pruned and over-budget
// plans, whose zero or unconstrained optima are not recommendations.
//
// It sorts the eligible plans by (time, cost) and sweeps them once: a plan
// is dominated exactly when a faster plan costs no more, or an equally fast
// one costs less. A NaN coordinate compares false both ways, so such a plan
// is on the frontier and dominates nothing.
func markPareto(plans []Plan) {
	idx := make([]int, 0, len(plans))
	for i := range plans {
		p := &plans[i]
		if !frontierEligible(p) {
			continue
		}
		if math.IsNaN(float64(p.Optimal.Time)) || math.IsNaN(p.Optimal.Cost) {
			p.Pareto = true
			continue
		}
		idx = append(idx, i)
	}
	at := func(i int) (float64, float64) { return float64(plans[i].Optimal.Time), plans[i].Optimal.Cost }
	slices.SortFunc(idx, func(a, b int) int {
		ta, ca := at(a)
		tb, cb := at(b)
		return cmp.Or(cmp.Compare(ta, tb), cmp.Compare(ca, cb))
	})
	// cheapest is the lowest cost among the plans faster than the run of
	// equal times that starts at start; a run's own lowest cost is its
	// first.
	var cheapest float64
	for start, end := 0, 0; start < len(idx); start = end {
		t, runCheapest := at(idx[start])
		for end = start; end < len(idx); end++ {
			te, c := at(idx[end])
			if te != t {
				break
			}
			plans[idx[end]].Pareto = c == runCheapest && (start == 0 || c < cheapest)
		}
		if start == 0 || runCheapest < cheapest {
			cheapest = runCheapest
		}
	}
}

// rankPlans orders plans in tiers — convergence-aware, per-iteration
// fallback, over-budget, pruned, failed — each tier sorted by the objective
// with the scenario name as the final tie-break (suite names are unique, so
// the order is total), then stamps the 1-based ranks. Runs without adaptive
// options produce only the first two tiers plus failures, so the order is
// exactly the pre-adaptive one.
func rankPlans(plans []Plan, objective Objective) {
	tier := func(p *Plan) int {
		switch {
		case p.Err != nil:
			return 4
		case p.Pruned:
			return 3
		case p.Infeasible:
			return 2
		case !p.ConvergenceAware:
			return 1
		}
		return 0
	}
	sort.SliceStable(plans, func(i, j int) bool {
		a, b := &plans[i], &plans[j]
		if ta, tb := tier(a), tier(b); ta != tb {
			return ta < tb
		}
		if a.Err != nil { // both failed: order by name
			return a.Scenario.Name < b.Scenario.Name
		}
		if a.Pruned { // both pruned: order by optimistic bound
			if bt1, bt2 := float64(a.Bound.Time), float64(b.Bound.Time); bt1 != bt2 {
				return bt1 < bt2
			}
			if a.Bound.Cost != b.Bound.Cost {
				return a.Bound.Cost < b.Bound.Cost
			}
			return a.Scenario.Name < b.Scenario.Name
		}
		if objective == ObjectivePareto && a.Pareto != b.Pareto {
			return a.Pareto
		}
		t1, t2 := float64(a.Optimal.Time), float64(b.Optimal.Time)
		c1, c2 := a.Optimal.Cost, b.Optimal.Cost
		if objective == ObjectiveCost {
			t1, c1 = c1, t1
			t2, c2 = c2, t2
		}
		if t1 != t2 {
			return t1 < t2
		}
		if c1 != c2 {
			return c1 < c2
		}
		return a.Scenario.Name < b.Scenario.Name
	})
	for i := range plans {
		plans[i].Rank = i + 1
	}
}

// Export flattens the report into the serializable records
// scenario.WritePlansJSON consumes.
func (r Report) Export() scenario.PlanReport {
	out := scenario.PlanReport{
		Suite:     r.Suite,
		Objective: string(r.Objective),
		Plans:     make([]scenario.PlanRecord, len(r.Plans)),
	}
	for i := range r.Plans {
		r.Plans[i].record(&out.Plans[i], true)
	}
	return out
}

// WriteJSON writes the report as the JSON document scenario.WritePlansJSON
// writes for Export's report, streaming it: each plan's record is filled
// into one reused record, so no curve is copied into a record of its own.
func (r Report) WriteJSON(w io.Writer) error {
	var rec scenario.PlanRecord
	return scenario.StreamPlansJSON(w, r.Suite, string(r.Objective), len(r.Plans), func(i int) scenario.PlanRecord {
		r.Plans[i].record(&rec, true)
		return rec
	})
}

// WriteCSV writes the report as scenario.WritePlansCSV's ranked table. Each
// plan fills one reused record without its curve, which the CSV leaves out.
func (r Report) WriteCSV(w io.Writer) error {
	var rec scenario.PlanRecord
	return scenario.WritePlansCSV(w, len(r.Plans), func(i int) scenario.PlanRecord {
		r.Plans[i].record(&rec, false)
		return rec
	})
}

// record fills rec with the plan's export record, and with its curve when
// withCurve is set. It keeps rec's curve arrays and appends to them from
// length 0, so WriteJSON's one record reuses them for every plan, and
// Export's zero records get arrays of exactly the curve's length. A plan
// without a curve leaves them empty, which omitempty drops like nil ones.
func (p *Plan) record(rec *scenario.PlanRecord, withCurve bool) {
	*rec = scenario.PlanRecord{
		Rank:             p.Rank,
		Scenario:         p.Scenario.Name,
		Family:           p.Family,
		ConvergenceAware: p.ConvergenceAware,
		Rule:             p.Rule,
		Refined:          p.Refined,
		Infeasible:       p.Infeasible,
		Notice:           p.Notice,
		Workers:          rec.Workers[:0],
		TimesSeconds:     rec.TimesSeconds[:0],
		Iterations:       rec.Iterations[:0],
		Costs:            rec.Costs[:0],
	}
	if p.Err != nil {
		rec.Error = p.Err.Error()
		return
	}
	rec.CostRatePerNodeHour = p.CostRate
	if p.Pruned {
		rec.Pruned = true
		rec.BoundTimeSeconds = float64(p.Bound.Time)
		rec.BoundCost = p.Bound.Cost
		return
	}
	rec.OptimalWorkers = p.Optimal.Workers
	rec.IterationsToAccuracy = p.Optimal.Iterations
	rec.TimeSeconds = float64(p.Optimal.Time)
	rec.Cost = p.Optimal.Cost
	rec.Pareto = p.Pareto
	if !withCurve {
		return
	}
	n := len(p.Curve)
	rec.Workers = withRoom(rec.Workers, n)
	rec.TimesSeconds = withRoom(rec.TimesSeconds, n)
	rec.Costs = withRoom(rec.Costs, n)
	for _, pt := range p.Curve {
		rec.Workers = append(rec.Workers, pt.Workers)
		rec.TimesSeconds = append(rec.TimesSeconds, float64(pt.Time))
		rec.Costs = append(rec.Costs, pt.Cost)
	}
	if p.ConvergenceAware {
		rec.Iterations = withRoom(rec.Iterations, n)
		for _, pt := range p.Curve {
			rec.Iterations = append(rec.Iterations, pt.Iterations)
		}
	}
}

// withRoom returns xs, which is empty, or a new empty slice when xs has no
// room for n elements. Unlike slices.Grow it allocates exactly once under
// the race detector too, so the allocation pins hold in both builds.
func withRoom[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, 0, n)
	}
	return xs
}
