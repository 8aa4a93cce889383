package planner

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"dmlscale/internal/units"
)

// dominates reports whether configuration a is at least as good as b on
// both time and cost and strictly better on one: the frontier relation.
func dominates(a, b Point) bool {
	at, bt := float64(a.Time), float64(b.Time)
	return at <= bt && a.Cost <= b.Cost && (at < bt || a.Cost < b.Cost)
}

// markParetoQuadratic is the all-pairs markPareto the sort-and-sweep
// replaced, kept as the reference it must agree with.
func markParetoQuadratic(plans []Plan) {
	for i := range plans {
		p := &plans[i]
		if !frontierEligible(p) {
			continue
		}
		dominated := false
		for j := range plans {
			q := &plans[j]
			if i == j || !frontierEligible(q) {
				continue
			}
			if dominates(q.Optimal, p.Optimal) {
				dominated = true
				break
			}
		}
		p.Pareto = !dominated
	}
}

// TestMarkParetoMatchesQuadratic compares the two on random plan sets with
// heavy ties: times and costs mostly drawn from 0–5, repeated optima, a few
// -0, ±Inf and NaN coordinates, and plans that may not compete (failed,
// pruned, over budget or not convergence-aware), whose flags must stay as
// they were.
func TestMarkParetoMatchesQuadratic(t *testing.T) {
	r := rand.New(rand.NewPCG(3000, 19))
	coord := func() float64 {
		switch r.IntN(30) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.NaN()
		case 4, 5, 6:
			return float64(r.IntN(11)) / 2
		}
		return float64(r.IntN(6))
	}
	for set := range 3000 {
		plans := make([]Plan, r.IntN(40))
		for i := range plans {
			p := &plans[i]
			p.ConvergenceAware = r.IntN(8) > 0
			p.Pruned = r.IntN(10) == 0
			p.Infeasible = r.IntN(10) == 0
			if r.IntN(12) == 0 {
				p.Err = errors.New("failed cell")
			}
			p.Pareto = r.IntN(2) == 0
			p.Optimal = Point{Time: units.Seconds(coord()), Cost: coord()}
			if i > 0 && r.IntN(4) == 0 {
				p.Optimal = plans[r.IntN(i)].Optimal
			}
		}
		want := make([]Plan, len(plans))
		copy(want, plans)
		markParetoQuadratic(want)
		markPareto(plans)
		for i := range plans {
			if plans[i].Pareto != want[i].Pareto {
				t.Fatalf("set %d, plan %d (%+v, eligible %v): pareto %v, all-pairs reference %v",
					set, i, plans[i].Optimal, frontierEligible(&plans[i]), plans[i].Pareto, want[i].Pareto)
			}
		}
	}
}

// rankPlansBySwaps is the rankPlans that stable-sorted the plans
// themselves, kept as the reference the permutation sort must agree with.
func rankPlansBySwaps(plans []Plan, objective Objective) {
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
		if a.Err != nil {
			return a.Scenario.Name < b.Scenario.Name
		}
		if a.Pruned {
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

// TestRankPlansMatchesSwapSort: ranking by a permutation orders random plan
// sets exactly as stable-sorting the plans did, under every objective, with
// ties on every key, repeated names, -0, ±Inf and NaN coordinates. Each
// plan carries its input position in PlanTime, so equal plans that swap
// places show.
func TestRankPlansMatchesSwapSort(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 7))
	coord := func() float64 {
		switch r.IntN(20) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Inf(1)
		case 2:
			return math.NaN()
		}
		return float64(r.IntN(4))
	}
	for set := range 2000 {
		plans := make([]Plan, r.IntN(70))
		for i := range plans {
			p := &plans[i]
			p.Scenario.Name = string(rune('a' + r.IntN(6)))
			p.ConvergenceAware = r.IntN(6) > 0
			p.Pruned = r.IntN(6) == 0
			p.Infeasible = r.IntN(8) == 0
			if r.IntN(10) == 0 {
				p.Err = errors.New("failed cell")
			}
			p.Pareto = r.IntN(2) == 0
			p.Optimal = Point{Time: units.Seconds(coord()), Cost: coord()}
			p.Bound = Point{Time: units.Seconds(coord()), Cost: coord()}
			p.PlanTime = time.Duration(i)
		}
		for _, objective := range []Objective{ObjectiveTTA, ObjectiveCost, ObjectivePareto} {
			got := slices.Clone(plans)
			want := slices.Clone(plans)
			rankPlans(got, objective)
			rankPlansBySwaps(want, objective)
			for i := range got {
				if got[i].PlanTime != want[i].PlanTime || got[i].Rank != want[i].Rank {
					t.Fatalf("set %d, objective %s, rank %d: input plan %d, swap sort's %d",
						set, objective, i+1, got[i].PlanTime, want[i].PlanTime)
				}
			}
		}
	}
}
