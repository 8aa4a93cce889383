package planner

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dmlscale/internal/core"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// weakScenario is a weak-scaling gradient-descent scenario with the given
// protocol and convergence block — the planner's home turf.
func weakScenario(name string, protocol scenario.ProtocolSpec, conv *scenario.ConvergenceSpec, maxN int) scenario.Scenario {
	return scenario.Scenario{
		Name: name,
		Workload: scenario.WorkloadSpec{
			Family:          "gd-weak",
			FlopsPerExample: 15e9,
			BatchSize:       128,
			Parameters:      25e6,
			PrecisionBits:   32,
		},
		Hardware:    scenario.HardwareSpec{Preset: "nvidia-k40"},
		Protocol:    protocol,
		MaxWorkers:  maxN,
		Convergence: conv,
	}
}

func shared() scenario.ProtocolSpec {
	return scenario.ProtocolSpec{Kind: "shared-memory"}
}

func tree(b float64) scenario.ProtocolSpec {
	return scenario.ProtocolSpec{Kind: "two-stage-tree", BandwidthBitsPerSec: b}
}

func TestPlanScenarioConvergenceAware(t *testing.T) {
	sc := weakScenario("aware", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 64)
	p, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ConvergenceAware || p.Rule != "sqrt" || p.Notice != "" {
		t.Fatalf("plan not convergence-aware: %+v", p)
	}
	if p.Family != "gd-weak" {
		t.Errorf("family = %q", p.Family)
	}
	if len(p.Curve) != 64 {
		t.Fatalf("curve has %d points, want 64", len(p.Curve))
	}
	// The optimum is the curve's minimum time.
	for _, pt := range p.Curve {
		if pt.Time < p.Optimal.Time {
			t.Errorf("curve point %d beats the optimum: %v < %v", pt.Workers, pt.Time, p.Optimal.Time)
		}
	}
	// sqrt rule at n workers: iterations = base/sqrt(n).
	if got, want := p.Curve[3].Iterations, 10000/math.Sqrt(4); math.Abs(got-want) > 1e-9 {
		t.Errorf("iterations(4) = %v, want %v", got, want)
	}
	// Cost = rate × workers × hours, K40 catalog rate 0.9.
	pt := p.Optimal
	if want := 0.9 * float64(pt.Workers) * float64(pt.Time) / 3600; math.Abs(pt.Cost-want) > 1e-12 {
		t.Errorf("cost = %v, want %v", pt.Cost, want)
	}
	if p.CostRate != 0.9 {
		t.Errorf("cost rate = %v, want the K40 catalog rate 0.9", p.CostRate)
	}
}

// TestPlanScenarioAllocs pins the allocations of one closed-form planner
// cell: model build, 64-point curve and optimum search take 4, with or
// without the race detector.
func TestPlanScenarioAllocs(t *testing.T) {
	sc := weakScenario("aware", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PlanScenario(sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("one planner cell allocated %.0f objects, pinned at 4", allocs)
	}
}

// TestFlatCurveRecommendsOneWorker: with free communication and a rule that
// caps the statistical benefit at kc = 1, time-to-accuracy is flat in n —
// there is no interior optimum, and the planner must not invent one.
func TestFlatCurveRecommendsOneWorker(t *testing.T) {
	sc := weakScenario("flat", shared(),
		&scenario.ConvergenceSpec{Rule: "diminishing", BaseIterations: 1000, CriticalBatchGrowth: 1}, 32)
	p, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Curve[0].Time
	for _, pt := range p.Curve {
		if pt.Time != first {
			t.Fatalf("curve not flat: t(%d) = %v, t(1) = %v", pt.Workers, pt.Time, first)
		}
	}
	if p.Optimal.Workers != 1 {
		t.Errorf("flat curve recommends %d workers, want 1 (fewest machines)", p.Optimal.Workers)
	}
}

// TestDiminishingPastCriticalBatch: with the diminishing rule and any
// nonzero communication, the optimum sits exactly at the critical batch
// growth — beyond it more workers only add communication.
func TestDiminishingPastCriticalBatch(t *testing.T) {
	const kc = 8
	sc := weakScenario("critical", tree(1e12),
		&scenario.ConvergenceSpec{Rule: "diminishing", BaseIterations: 1000, CriticalBatchGrowth: kc}, 64)
	p, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Optimal.Workers != kc {
		t.Errorf("optimum = %d workers, want the critical batch growth %d", p.Optimal.Workers, kc)
	}
	// Past kc the iteration count stops shrinking.
	if it8, it64 := p.Curve[kc-1].Iterations, p.Curve[63].Iterations; it8 != it64 {
		t.Errorf("iterations keep changing past kc: %v at 8, %v at 64", it8, it64)
	}
}

func TestSingleWorkerRange(t *testing.T) {
	sc := weakScenario("single", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "linear", BaseIterations: 100}, 1)
	p, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Curve) != 1 || p.Optimal.Workers != 1 {
		t.Fatalf("single-worker range planned %+v", p.Optimal)
	}
	if p.Optimal.Iterations != 100 {
		t.Errorf("iterations = %v, want the base 100", p.Optimal.Iterations)
	}
}

// TestFallbacks: a scenario without a convergence block, and one from a
// family with no iteration notion, both degrade to per-iteration ranking
// with a clear notice instead of failing.
func TestFallbacks(t *testing.T) {
	noBlock := weakScenario("no block", tree(1e9), nil, 16)
	p, err := PlanScenario(noBlock)
	if err != nil {
		t.Fatal(err)
	}
	if p.ConvergenceAware || !strings.Contains(p.Notice, "no convergence block") {
		t.Errorf("missing-block fallback: aware %v, notice %q", p.ConvergenceAware, p.Notice)
	}
	if p.Optimal.Workers < 1 || p.Optimal.Time <= 0 {
		t.Errorf("fallback optimum %+v", p.Optimal)
	}
	if p.Optimal.Iterations != 0 {
		t.Errorf("fallback predicted %v iterations", p.Optimal.Iterations)
	}

	mrf := scenario.Scenario{
		Name: "bp",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "grid", Vertices: 400},
		},
		Hardware: scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol: shared(),
		// A convergence block on a family without an iteration model
		// cannot be honored; the planner says so rather than guessing.
		Convergence: &scenario.ConvergenceSpec{Rule: "linear", BaseIterations: 10},
		MaxWorkers:  8,
	}
	p, err = PlanScenario(mrf)
	if err != nil {
		t.Fatal(err)
	}
	if p.ConvergenceAware || !strings.Contains(p.Notice, "no iteration model") {
		t.Errorf("graph-family fallback: aware %v, notice %q", p.ConvergenceAware, p.Notice)
	}
}

func TestPlanScenarioErrors(t *testing.T) {
	bad := weakScenario("bad", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "warp", BaseIterations: 100}, 8)
	if _, err := PlanScenario(bad); err == nil {
		t.Error("bad rule accepted")
	}
	broken := weakScenario("broken", scenario.ProtocolSpec{Kind: "warp"}, nil, 8)
	if _, err := PlanScenario(broken); err == nil {
		t.Error("bad protocol accepted")
	}
}

// planTestSuite mixes convergence-aware cells on two cost rates, a
// dominated cell, a fallback cell and a broken cell.
func planTestSuite() scenario.Suite {
	cheap := weakScenario("cheap cpu", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 32)
	cheap.Hardware = scenario.HardwareSpec{Preset: "xeon-e3-1240"}
	cheap.Workload.FlopsPerExample = 72e6
	cheap.Workload.BatchSize = 60000
	cheap.Workload.Parameters = 12e6

	fast := weakScenario("fast gpu", tree(10e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 32)

	// Identical to "fast gpu" but at twice the hourly rate: same time,
	// strictly higher cost — genuinely dominated. (A slower network would
	// NOT be dominated: its optimum uses fewer workers and can be cheaper.)
	dominated := weakScenario("fast gpu, pricier", tree(10e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 32)
	dominated.Hardware = scenario.HardwareSpec{Preset: "nvidia-k40", CostPerHour: 1.8}

	fallback := weakScenario("unplanned", tree(1e9), nil, 32)

	broken := weakScenario("broken", scenario.ProtocolSpec{Kind: "warp"}, nil, 32)

	return scenario.Suite{
		Name:      "plan ranking",
		Scenarios: []scenario.Scenario{cheap, fast, dominated, fallback, broken},
	}
}

func planByName(t *testing.T, r Report, name string) Plan {
	t.Helper()
	for _, p := range r.Plans {
		if p.Scenario.Name == name {
			return p
		}
	}
	t.Fatalf("plan %q missing from report", name)
	return Plan{}
}

func TestPlanSuiteRankingAndPareto(t *testing.T) {
	suite := planTestSuite()
	report, _, err := PlanSuiteCtx(context.Background(), suite, ObjectivePareto, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Plans) != 5 {
		t.Fatalf("%d plans", len(report.Plans))
	}
	for i, p := range report.Plans {
		if p.Rank != i+1 {
			t.Errorf("plan %d has rank %d", i, p.Rank)
		}
	}
	fast := planByName(t, report, "fast gpu")
	pricier := planByName(t, report, "fast gpu, pricier")
	fallback := planByName(t, report, "unplanned")
	broken := planByName(t, report, "broken")

	// "fast gpu" dominates its pricier twin (same time, lower cost), so
	// the frontier keeps one and drops the other.
	if !fast.Pareto {
		t.Error("fast gpu not on the Pareto frontier")
	}
	if pricier.Pareto {
		t.Error("dominated cell on the Pareto frontier")
	}
	if fallback.Pareto {
		t.Error("fallback plan on the Pareto frontier")
	}
	// Tiers: convergence-aware before fallback before broken.
	if !(fallback.Rank > 3) || broken.Rank != 5 {
		t.Errorf("tier order wrong: fallback rank %d, broken rank %d", fallback.Rank, broken.Rank)
	}
	if broken.Err == nil {
		t.Error("broken plan carries no error")
	}
	// Under pareto, the frontier cells occupy the top ranks, en bloc.
	frontier := 0
	for _, p := range report.Plans {
		if p.Pareto {
			frontier++
		}
	}
	if frontier == 0 {
		t.Fatal("no frontier cells at all")
	}
	for _, p := range report.Plans[:frontier] {
		if !p.Pareto {
			t.Errorf("rank %d is not a frontier cell under the pareto objective", p.Rank)
		}
	}

	// The cost objective puts the cheapest run first.
	byCost, _, err := PlanSuiteCtx(context.Background(), suite, ObjectiveCost, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := byCost.Plans[0]
	for _, p := range byCost.Plans[1:] {
		if p.Err != nil || !p.ConvergenceAware {
			continue
		}
		if p.Optimal.Cost < top.Optimal.Cost {
			t.Errorf("cost objective ranked %q (%v) above cheaper %q (%v)",
				top.Scenario.Name, top.Optimal.Cost, p.Scenario.Name, p.Optimal.Cost)
		}
	}

	// The tta objective puts the fastest run first.
	byTTA, _, err := PlanSuiteCtx(context.Background(), suite, ObjectiveTTA, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	topT := byTTA.Plans[0]
	for _, p := range byTTA.Plans[1:] {
		if p.Err != nil || !p.ConvergenceAware {
			continue
		}
		if p.Optimal.Time < topT.Optimal.Time {
			t.Errorf("tta objective ranked %q above faster %q", topT.Scenario.Name, p.Scenario.Name)
		}
	}
}

func TestPlanSuiteObjectiveResolution(t *testing.T) {
	suite := planTestSuite()
	suite.Objective = "cost"
	report, _, err := PlanSuiteCtx(context.Background(), suite, "", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Objective != ObjectiveCost {
		t.Errorf("suite objective not honored: %q", report.Objective)
	}
	// An explicit objective overrides the suite's.
	report, _, err = PlanSuiteCtx(context.Background(), suite, ObjectiveTTA, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Objective != ObjectiveTTA {
		t.Errorf("override not honored: %q", report.Objective)
	}
	if _, _, err := PlanSuiteCtx(context.Background(), suite, Objective("fastest"), 0, Options{}); err == nil {
		t.Error("bad override accepted")
	}
	suite.Objective = "fastest"
	if _, _, err := PlanSuiteCtx(context.Background(), suite, "", 0, Options{}); err == nil {
		t.Error("bad suite objective accepted")
	}
	if _, err := ParseObjective(""); err != nil {
		t.Errorf("empty objective should default to tta: %v", err)
	}
	// Every objective a suite file may carry parses here.
	for _, name := range scenario.Objectives() {
		if _, err := ParseObjective(name); err != nil {
			t.Errorf("suite objective %q does not parse: %v", name, err)
		}
	}
}

// TestPlanSuiteDeterministicAtAnyParallelism: the acceptance bar — a grid
// with a Monte-Carlo cell planned serially and on the full shared budget
// yields bit-identical reports, rank for rank.
func TestPlanSuiteDeterministicAtAnyParallelism(t *testing.T) {
	suite := planTestSuite()
	suite.Scenarios = append(suite.Scenarios, scenario.Scenario{
		Name: "monte carlo cell",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "dns", Vertices: 8000, Seed: 7},
			Trials: 4,
			Seed:   7,
		},
		Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol:   shared(),
		MaxWorkers: 12,
	})
	plan := func(parallelism int) scenario.PlanReport {
		core.SetParallelism(parallelism)
		report, _, err := PlanSuiteCtx(context.Background(), suite, ObjectivePareto, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return report.Export()
	}
	defer core.SetParallelism(0)
	serial := plan(1)
	parallel := plan(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel plans differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestPlanSuiteColdVsWarmBitIdentical: planning prices its models through
// the process-wide kernel caches, so a warm pass — including the
// per-iteration fallbacks over Monte-Carlo graph cells — performs no new
// estimations and reports exactly the cold pass's plans.
func TestPlanSuiteColdVsWarmBitIdentical(t *testing.T) {
	registry.ResetCaches()
	defer registry.ResetCaches()
	suite := planTestSuite()
	suite.Scenarios = append(suite.Scenarios, scenario.Scenario{
		Name: "monte carlo fallback cell",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "dns", Vertices: 4000, Seed: 11},
			Trials: 3,
			Seed:   11,
		},
		Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol:   shared(),
		MaxWorkers: 10,
	})
	run := func() scenario.PlanReport {
		report, _, err := PlanSuiteCtx(context.Background(), suite, ObjectiveTTA, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return report.Export()
	}
	cold := run()
	misses := registry.SnapshotCaches().Estimates.Misses
	if misses != 10 {
		t.Errorf("cold plan performed %d estimations, want 10 (one per worker count)", misses)
	}
	warm := run()
	if got := registry.SnapshotCaches().Estimates.Misses; got != misses {
		t.Errorf("warm plan re-estimated: misses %d → %d", misses, got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cold and warm plans differ:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

func TestExportShape(t *testing.T) {
	report, _, err := PlanSuiteCtx(context.Background(), planTestSuite(), ObjectivePareto, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := report.Export()
	if out.Suite != "plan ranking" || out.Objective != "pareto" || len(out.Plans) != 5 {
		t.Fatalf("export shape: %+v", out)
	}
	for _, rec := range out.Plans {
		if rec.Error != "" {
			if rec.OptimalWorkers != 0 || len(rec.Workers) != 0 {
				t.Errorf("error record %q carries numbers", rec.Scenario)
			}
			continue
		}
		if len(rec.Workers) != len(rec.TimesSeconds) || len(rec.Workers) != len(rec.Costs) {
			t.Errorf("record %q: curve arrays misaligned", rec.Scenario)
		}
		if rec.ConvergenceAware && len(rec.Iterations) != len(rec.Workers) {
			t.Errorf("record %q: iterations missing", rec.Scenario)
		}
		if !rec.ConvergenceAware && rec.Notice == "" {
			t.Errorf("record %q: fallback without notice", rec.Scenario)
		}
	}
}

func TestOptimalWorkersScanAndGolden(t *testing.T) {
	vshape := func(opt int) func(int) float64 {
		return func(n int) float64 { return math.Abs(float64(n - opt)) }
	}
	// Scan path, interior optimum.
	if got := OptimalWorkers(vshape(37), 100); got != 37 {
		t.Errorf("scan optimum = %d, want 37", got)
	}
	// Golden path on a range past the scan limit.
	if got := OptimalWorkers(vshape(7001), 20000); got != 7001 {
		t.Errorf("golden optimum = %d, want 7001", got)
	}
	// Boundary optima.
	if got := OptimalWorkers(func(n int) float64 { return float64(n) }, 50); got != 1 {
		t.Errorf("increasing curve optimum = %d, want 1", got)
	}
	if got := OptimalWorkers(func(n int) float64 { return -float64(n) }, 50); got != 50 {
		t.Errorf("decreasing curve optimum = %d, want 50", got)
	}
	// Flat curves keep the smallest count on both paths.
	flat := func(int) float64 { return 1 }
	if got := OptimalWorkers(flat, 100); got != 1 {
		t.Errorf("flat scan optimum = %d, want 1", got)
	}
	if got := OptimalWorkers(flat, 20000); got != 1 {
		t.Errorf("flat golden optimum = %d, want 1", got)
	}
	if got := OptimalWorkers(flat, 1); got != 1 {
		t.Errorf("single-point optimum = %d", got)
	}
}
