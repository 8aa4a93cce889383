package planner

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

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
