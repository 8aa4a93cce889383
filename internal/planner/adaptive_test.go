package planner

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dmlscale/internal/core"
	"dmlscale/internal/scenario"
)

func TestFrontierInsertKeepsOnlyNonDominated(t *testing.T) {
	var f Frontier
	f.Insert(10, 10)
	f.Insert(5, 20) // faster, costlier: both stay
	f.Insert(20, 5) // slower, cheaper: stays
	if f.Len() != 3 {
		t.Fatalf("frontier holds %d points, want 3", f.Len())
	}
	f.Insert(12, 12) // dominated by (10,10)
	if f.Len() != 3 {
		t.Fatalf("dominated insert grew the frontier to %d", f.Len())
	}
	f.Insert(10, 10) // exact duplicate
	if f.Len() != 3 {
		t.Fatalf("duplicate insert grew the frontier to %d", f.Len())
	}
	f.Insert(4, 6) // dominates (5,20) and (10,10), not the cheaper (20,5)
	if f.Len() != 2 {
		t.Fatalf("dominating insert left %d points, want 2", f.Len())
	}
	if !f.DominatesStrictly(5, 7) {
		t.Error("(4,6) should strictly dominate (5,7)")
	}
	if !f.DominatesStrictly(30, 6) {
		t.Error("(20,5) should strictly dominate (30,6)")
	}
	if f.DominatesStrictly(4, 10) {
		t.Error("equal time must not prune")
	}
	if f.DominatesStrictly(30, 5) {
		t.Error("equal cost must not prune")
	}
	if f.DominatesStrictly(3, 100) {
		t.Error("nothing faster than (3,·) exists")
	}
}

func TestFrontierInvariantAfterInserts(t *testing.T) {
	var f Frontier
	// A deterministic pseudo-random walk: enough churn to exercise every
	// splice path.
	x := uint64(88172645463325252)
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%10000) / 100
	}
	for i := 0; i < 5000; i++ {
		f.Insert(rnd(), rnd())
	}
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].time <= f.pts[i-1].time || f.pts[i].cost >= f.pts[i-1].cost {
			t.Fatalf("invariant broken at %d: %+v after %+v", i, f.pts[i], f.pts[i-1])
		}
	}
}

// TestFrontierConcurrentHammer drives Insert and DominatesStrictly from many
// goroutines; run with -race this is the locking check, and the invariant
// must hold afterwards regardless of interleaving.
func TestFrontierConcurrentHammer(t *testing.T) {
	var f Frontier
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*2654435761 + 1
			rnd := func() float64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return float64(x%10000) / 100
			}
			for i := 0; i < 2000; i++ {
				tv, cv := rnd(), rnd()
				if i%3 == 0 {
					f.DominatesStrictly(tv, cv)
				} else {
					f.Insert(tv, cv)
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].time <= f.pts[i-1].time || f.pts[i].cost >= f.pts[i-1].cost {
			t.Fatalf("invariant broken at %d: %+v after %+v", i, f.pts[i], f.pts[i-1])
		}
	}
}

// paretoSet returns the names of the plans marked on the frontier.
func paretoSet(r Report) map[string]bool {
	out := map[string]bool{}
	for _, p := range r.Plans {
		if p.Pareto {
			out[p.Scenario.Name] = true
		}
	}
	return out
}

// planByName indexes a report's plans.
func plansByName(r Report) map[string]*Plan {
	out := make(map[string]*Plan, len(r.Plans))
	for i := range r.Plans {
		out[r.Plans[i].Scenario.Name] = &r.Plans[i]
	}
	return out
}

// assertSameFrontier fails unless the pruned run kept the exhaustive
// frontier and evaluated every surviving cell to the identical plan.
func assertSameFrontier(t *testing.T, label string, exhaustive, pruned Report) {
	t.Helper()
	we, wp := paretoSet(exhaustive), paretoSet(pruned)
	if len(we) != len(wp) {
		t.Errorf("%s: frontier size %d pruned vs %d exhaustive", label, len(wp), len(we))
	}
	for name := range we {
		if !wp[name] {
			t.Errorf("%s: %q on the exhaustive frontier but not the pruned one", label, name)
		}
	}
	for name := range wp {
		if !we[name] {
			t.Errorf("%s: %q on the pruned frontier but not the exhaustive one", label, name)
		}
	}
	byName := plansByName(exhaustive)
	for i := range pruned.Plans {
		p := &pruned.Plans[i]
		if p.Pruned {
			// A pruned cell must be genuinely off the exhaustive frontier.
			if we[p.Scenario.Name] {
				t.Errorf("%s: frontier cell %q was pruned", label, p.Scenario.Name)
			}
			continue
		}
		w, ok := byName[p.Scenario.Name]
		if !ok {
			t.Errorf("%s: pruned run invented cell %q", label, p.Scenario.Name)
			continue
		}
		if (p.Err == nil) != (w.Err == nil) {
			t.Errorf("%s: %q error mismatch: %v vs %v", label, p.Scenario.Name, p.Err, w.Err)
			continue
		}
		if p.Err == nil && (p.Optimal != w.Optimal || p.Pareto != w.Pareto) {
			t.Errorf("%s: %q evaluated to %+v (pareto %v), exhaustive %+v (pareto %v)",
				label, p.Scenario.Name, p.Optimal, p.Pareto, w.Optimal, w.Pareto)
		}
	}
}

// TestPrunedMatchesExhaustiveOnExampleSuites is the equivalence check over
// every shipped suite file: pruning may skip work but must not change the
// frontier or any surviving plan.
func TestPrunedMatchesExhaustiveOnExampleSuites(t *testing.T) {
	files, err := filepath.Glob("../../examples/suites/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example suites found: %v", err)
	}
	for _, file := range files {
		s, err := scenario.LoadSuite(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		exhaustive, _, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", file, err)
		}
		for _, parallel := range []int{1, 0} {
			pruned, stats, err := PlanSuiteCtx(context.Background(), s, "", parallel, Options{Prune: true})
			if err != nil {
				t.Fatalf("%s: pruned: %v", file, err)
			}
			if stats.Scenarios != len(exhaustive.Plans) {
				t.Errorf("%s: pruned run planned %d cells, exhaustive %d", file, stats.Scenarios, len(exhaustive.Plans))
			}
			assertSameFrontier(t, fmt.Sprintf("%s parallel=%d", filepath.Base(file), parallel), exhaustive, pruned)
		}
	}
}

// bigSuite builds the acceptance grid: five axes, ≥10k cells, a weak-scaling
// gradient-descent workload with diminishing-returns convergence so optima
// sit in the interior of the worker range and the cost×time landscape has a
// real frontier to find.
func bigSuite(bandwidths, workerBounds int) scenario.Suite {
	base := scenario.Fig3()
	base.Name = "conv ANN"
	base.Convergence = &scenario.ConvergenceSpec{
		Rule:                "diminishing",
		BaseIterations:      60000,
		CriticalBatchGrowth: 24,
	}
	bw := make([]float64, bandwidths)
	for i := range bw {
		bw[i] = 2e8 * pow(1.5, i)
	}
	wb := make([]int, workerBounds)
	for i := range wb {
		wb[i] = 6 + 4*i
	}
	return scenario.Suite{
		Name:      "acceptance grid",
		Objective: "pareto",
		Sweep: &scenario.Sweep{
			Base:                 base,
			Protocols:            []string{"tree", "two-stage-tree", "spark", "ring", "pipelined-tree"},
			Hardware:             []string{"xeon-e3-1240", "nvidia-k40", "dl980-core"},
			BandwidthsBitsPerSec: bw,
			PrecisionsBits:       []float64{8, 16, 32, 64, 80},
			MaxWorkers:           wb,
		},
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}

// TestAdaptiveAcceptanceBigGrid is the PR's acceptance criterion: on a
// ≥10k-cell five-axis grid, the pruned+refined pass evaluates at most 30%
// of its cells while reproducing the exhaustive Pareto frontier exactly.
func TestAdaptiveAcceptanceBigGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-cell grid")
	}
	s := bigSuite(18, 8) // 5 × 3 × 18 × 5 × 8 = 10800 cells
	cs, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() < 10000 {
		t.Fatalf("grid has %d cells, need ≥ 10000", cs.Len())
	}

	exhaustive, exStats, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exStats.Evaluated != cs.Len() {
		t.Fatalf("exhaustive pass evaluated %d of %d cells", exStats.Evaluated, cs.Len())
	}

	pruned, stats, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{Prune: true, RefineRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RefineRounds == 0 || stats.Refined == 0 {
		t.Errorf("refinement did not run: %+v", stats)
	}
	if limit := (stats.Scenarios * 30) / 100; stats.Evaluated > limit {
		t.Errorf("adaptive pass evaluated %d of %d cells (%.1f%%), acceptance bound is 30%%",
			stats.Evaluated, stats.Scenarios, 100*float64(stats.Evaluated)/float64(stats.Scenarios))
	}

	// Frontier equivalence on the declared grid: restrict the adaptive
	// report to non-refined cells and compare memberships. Refined cells
	// may only extend the frontier, never displace a declared plan's
	// evaluation.
	declared := Report{Suite: pruned.Suite, Objective: pruned.Objective}
	for _, p := range pruned.Plans {
		if !p.Refined {
			declared.Plans = append(declared.Plans, p)
		}
	}
	exFront := paretoSet(exhaustive)
	byName := plansByName(declared)
	for name := range exFront {
		p, ok := byName[name]
		if !ok {
			t.Errorf("exhaustive frontier cell %q missing from the adaptive report", name)
			continue
		}
		if p.Pruned {
			t.Errorf("exhaustive frontier cell %q was pruned", name)
			continue
		}
		if w := plansByName(exhaustive)[name]; p.Optimal != w.Optimal {
			t.Errorf("frontier cell %q evaluated to %+v, exhaustive %+v", name, p.Optimal, w.Optimal)
		}
	}
	// And the converse: every declared cell the adaptive pass kept on the
	// frontier is on the exhaustive frontier or dominated only by refined
	// cells (which the exhaustive pass never saw).
	exByName := plansByName(exhaustive)
	for _, p := range declared.Plans {
		if !p.Pareto || p.Refined {
			continue
		}
		w, ok := exByName[p.Scenario.Name]
		if !ok || w.Err != nil {
			t.Errorf("adaptive frontier cell %q unknown to the exhaustive pass", p.Scenario.Name)
			continue
		}
		if !w.Pareto {
			t.Errorf("adaptive kept %q on the frontier; exhaustive dominated it", p.Scenario.Name)
		}
	}

	// Sanity on the refined cells: they are real evaluated plans with the
	// refinement marker and off-grid names.
	refined := 0
	for _, p := range pruned.Plans {
		if p.Refined {
			refined++
			if p.Err != nil && !p.Pruned {
				t.Errorf("refined cell %q failed: %v", p.Scenario.Name, p.Err)
			}
		}
	}
	if refined != stats.Refined {
		t.Errorf("report carries %d refined plans, stats say %d", refined, stats.Refined)
	}
}

// TestAdaptiveBudgetConstraints exercises -max-cost/-max-time: bound-
// infeasible cells are pruned, surviving plans recommend inside the budget,
// and a budget nothing satisfies marks plans infeasible instead of lying.
func TestAdaptiveBudgetConstraints(t *testing.T) {
	s := bigSuite(4, 3)
	s.Sweep.Protocols = []string{"tree"}
	s.Sweep.Hardware = []string{"nvidia-k40"}
	s.Sweep.PrecisionsBits = []float64{32}

	free, _, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a budget between the cheapest and costliest optimum so both
	// sides of the constraint appear.
	var costs []float64
	for _, p := range free.Plans {
		if p.Err == nil && p.ConvergenceAware {
			costs = append(costs, p.Optimal.Cost)
		}
	}
	if len(costs) < 2 {
		t.Fatalf("grid too degenerate: %d aware plans", len(costs))
	}
	sort.Float64s(costs)
	budget := costs[len(costs)/2]

	constrained, stats, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{MaxCost: budget})
	if err != nil {
		t.Fatal(err)
	}
	recommended := 0
	for _, p := range constrained.Plans {
		if p.Err != nil || p.Pruned || !p.ConvergenceAware {
			continue
		}
		if p.Infeasible {
			continue
		}
		recommended++
		if p.Optimal.Cost > budget {
			t.Errorf("%q recommends cost %.4g over the %.4g budget", p.Scenario.Name, p.Optimal.Cost, budget)
		}
	}
	if recommended == 0 {
		t.Error("no plan survived a median budget")
	}

	impossible, stats2, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{MaxCost: costs[0] / 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range impossible.Plans {
		if p.Err == nil && p.ConvergenceAware && !p.Pruned && !p.Infeasible {
			t.Errorf("%q claims feasibility under an impossible budget (cost %.4g)", p.Scenario.Name, p.Optimal.Cost)
		}
		if p.Pareto {
			t.Errorf("%q marked pareto with nothing feasible", p.Scenario.Name)
		}
	}
	if stats.Scenarios != stats2.Scenarios {
		t.Errorf("constrained runs planned %d vs %d cells", stats.Scenarios, stats2.Scenarios)
	}
}

// TestRefinementAddsInteriorCells pins the mechanics: refined cells carry
// the marker, subdivide only the numeric axes, and dedup against the grid.
func TestRefinementAddsInteriorCells(t *testing.T) {
	s := bigSuite(3, 3)
	s.Sweep.Protocols = []string{"two-stage-tree"}
	s.Sweep.Hardware = []string{"xeon-e3-1240"}
	s.Sweep.PrecisionsBits = []float64{32}

	report, stats, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{RefineRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refined == 0 || stats.RefineRounds == 0 {
		t.Fatalf("no refinement happened: %+v", stats)
	}
	keys := map[string]string{}
	for _, p := range report.Plans {
		if k := p.Scenario.EvalKey(); k != "" {
			if prev, dup := keys[k]; dup {
				t.Errorf("cells %q and %q share a model", prev, p.Scenario.Name)
			} else {
				keys[k] = p.Scenario.Name
			}
		}
		if p.Refined && p.Err == nil && !p.Pruned && !p.ConvergenceAware {
			t.Errorf("refined cell %q lost convergence awareness", p.Scenario.Name)
		}
	}
}

// TestZeroOptionsBitIdentical pins the zero Options to a serial exhaustive
// pass at any parallelism — the adaptive machinery must be invisible until
// asked for.
func TestZeroOptionsBitIdentical(t *testing.T) {
	s := bigSuite(3, 2)
	s.Sweep.Protocols = []string{"tree", "ring"}
	s.Sweep.Hardware = []string{"", "dl980-core"}
	s.Sweep.PrecisionsBits = []float64{32, 64}

	want, _, err := PlanSuiteCtx(context.Background(), s, "", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 0} {
		got, stats, err := PlanSuiteCtx(context.Background(), s, "", parallel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pruned != 0 || stats.Refined != 0 {
			t.Errorf("zero options reported adaptive stats %+v", stats)
		}
		if len(got.Plans) != len(want.Plans) {
			t.Fatalf("%d plans vs %d", len(got.Plans), len(want.Plans))
		}
		for i := range want.Plans {
			w, g := want.Plans[i], got.Plans[i]
			if g.Scenario.Name != w.Scenario.Name || g.Rank != w.Rank || g.Optimal != w.Optimal ||
				g.Pareto != w.Pareto || (g.Err == nil) != (w.Err == nil) {
				t.Errorf("parallel=%d plan %d: %q rank %d %+v vs %q rank %d %+v",
					parallel, i, g.Scenario.Name, g.Rank, g.Optimal, w.Scenario.Name, w.Rank, w.Optimal)
			}
		}
	}
}

// TestAdaptiveReportIndependentOfParallelism: a parallel adaptive pass can
// evaluate a cell before the frontier that prunes it has formed, yet its
// report, prune count included, must be the serial pass's byte for byte,
// or a served plan would differ from the CLI's run to run.
func TestAdaptiveReportIndependentOfParallelism(t *testing.T) {
	// The first two cells in planning order race, and a serial pass
	// prunes the second on the first's optimum.
	s, err := scenario.DecodeSuite(strings.NewReader(`{
	  "name": "racing grid",
	  "objective": "pareto",
	  "sweep": {
	    "base": {
	      "name": "conv",
	      "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6, "precision_bits": 32},
	      "hardware": {"preset": "nvidia-k40"},
	      "protocol": {"kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9},
	      "convergence": {"rule": "diminishing", "base_iterations": 50000, "critical_batch_growth": 32},
	      "max_workers": 32
	    },
	    "bandwidths_bits_per_sec": [1e9, 10e9],
	    "protocols": ["two-stage-tree", "ring"]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetParallelism(0)
	plan := func(parallelism int) ([]byte, int) {
		core.SetParallelism(parallelism)
		report, stats, err := PlanSuiteCtx(context.Background(), s, "", 0, Options{Prune: true, RefineRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := scenario.WritePlansJSON(&buf, report.Export()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), stats.Pruned
	}
	want, wantPruned := plan(1)
	for run := 0; run < 40; run++ {
		got, pruned := plan(8)
		if !bytes.Equal(got, want) || pruned != wantPruned {
			t.Fatalf("run %d at parallelism 8: report differs from the serial pass (%d pruned, serial %d)", run, pruned, wantPruned)
		}
	}
}
