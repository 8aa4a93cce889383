package planner

import (
	"context"
	"fmt"

	"dmlscale/internal/core"
	"dmlscale/internal/scenario"
)

// PlanSuiteDegradedCtx plans a suite without ever touching the Monte-Carlo
// kernel: every cell gets its registry bound-model estimate — the same
// optimistic (time, cost) utopia point the adaptive planner prunes with —
// reported as a bound-only plan with a notice. It is the serving layer's
// fallback while the kernel circuit breaker is open: the service keeps
// answering /v1/plan with honest lower-bound numbers (Report.Degraded and
// the JSON "degraded" field say so explicitly) instead of failing, shedding
// work rather than availability. Cells with no kernel-free bound (no
// convergence block, unbounded families, resolution failures) carry an
// error explaining that degraded mode cannot estimate them; the rest of
// the suite still answers. Entirely closed-form: no model construction,
// no kernel cache traffic, deterministic at any parallelism.
func PlanSuiteDegradedCtx(ctx context.Context, s scenario.Suite, objective Objective, parallelism int) (Report, error) {
	objective, err := resolveObjective(s, objective)
	if err != nil {
		return Report{}, err
	}
	cs, err := s.Cells()
	if err != nil {
		return Report{}, err
	}
	n := cs.Len()
	plans := make([]Plan, n)
	ran := core.ForEachCtx(ctx, n, parallelism, func(i int) {
		plans[i] = degradedPlan(cs.At(i))
	})
	for i := ran; i < n; i++ {
		plans[i] = cancelledPlan(cs.At(i).Scenario, ctx.Err())
	}
	rankPlans(plans, objective)
	return Report{Suite: s.Name, Objective: objective, Degraded: true, Plans: plans}, ctx.Err()
}

// degradedPlan is one cell's kernel-free answer: its optimistic bound as a
// bound-only plan, or an honest error when the cell cannot be bounded
// without the kernel.
func degradedPlan(c scenario.Cell) Plan {
	b := boundFor(c.Scenario)
	if !b.ok {
		return Plan{Scenario: c.Scenario, Err: fmt.Errorf(
			"planner: degraded mode: scenario %q has no kernel-free bound (retry when the service recovers)",
			c.Scenario.Name)}
	}
	p := prunedPlan(c, b)
	p.Notice = "degraded: kernel unavailable; optimistic bound-model estimate, not a recommendation"
	return p
}
