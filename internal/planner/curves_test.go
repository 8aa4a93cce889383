package planner

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dmlscale/internal/core"
	"dmlscale/internal/scenario"
	"dmlscale/internal/units"
)

// sameCurve reports whether two curves are equal bit for bit.
func sameCurve(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Workers != b[i].Workers ||
			math.Float64bits(a[i].Iterations) != math.Float64bits(b[i].Iterations) ||
			math.Float64bits(float64(a[i].Time)) != math.Float64bits(float64(b[i].Time)) ||
			math.Float64bits(a[i].Cost) != math.Float64bits(b[i].Cost) {
			return false
		}
	}
	return true
}

// TestModelCurvePrefixSurvivesPanickingFill: a fill that panics midway
// leaves the priced length where it was, so the next cell prices the points
// itself instead of reading a partial prefix.
func TestModelCurvePrefixSurvivesPanickingFill(t *testing.T) {
	at := func(scale float64) func(int) Point {
		return func(n int) Point { return Point{Workers: n, Time: units.Seconds(scale * float64(n))} }
	}
	m := &modelCurve{bound: 8}
	first := m.prefix(4, at(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fill did not panic")
			}
		}()
		m.prefix(8, func(n int) Point {
			if n == 6 {
				panic(context.Canceled)
			}
			return at(-1)(n)
		})
	}()
	if len(m.pts) != 4 {
		t.Fatalf("a failed fill advanced the priced length to %d, want 4", len(m.pts))
	}
	full := m.prefix(8, at(1))
	if !sameCurve(full, at8(at(1))) {
		t.Errorf("curve after a failed fill = %v", full)
	}
	if &full[0] != &first[0] || cap(first) != 4 || cap(full) != 8 {
		t.Errorf("prefixes do not share one capped array: caps %d and %d", cap(first), cap(full))
	}
}

// TestModelCurveConcurrentPrefixes: cells reading one model's curve at
// once, each to its own bound, price every point exactly once and read
// prefixes of one array.
func TestModelCurveConcurrentPrefixes(t *testing.T) {
	const cells, bound = 16, 64
	want := func(n int) Point { return Point{Workers: n, Time: units.Seconds(1 / float64(n))} }
	var priced atomic.Int64
	at := func(n int) Point {
		priced.Add(1)
		return want(n)
	}
	m := &modelCurve{mu: new(sync.Mutex), bound: bound}
	curves := make([][]Point, cells)
	var wg sync.WaitGroup
	for c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			curves[c] = m.prefix(bound-3*c, at)
		}()
	}
	wg.Wait()
	if got := priced.Load(); got != bound {
		t.Errorf("priced %d points, want each of the %d once", got, bound)
	}
	for c, curve := range curves {
		if len(curve) != bound-3*c || &curve[0] != &curves[0][0] {
			t.Fatalf("cell %d: %d points, shared array %v", c, len(curve), &curve[0] == &curves[0][0])
		}
		for i, pt := range curve {
			if pt != want(i+1) {
				t.Fatalf("cell %d, point %d: %+v", c, i+1, pt)
			}
		}
	}
}

// at8 prices the points 1..8 with at.
func at8(at func(int) Point) []Point {
	out := make([]Point, 8)
	for i := range out {
		out[i] = at(i + 1)
	}
	return out
}

// curveSuite is a multi-bound grid over two protocols and three bandwidths,
// plus explicit per-iteration cells, one on a graph family.
func curveSuite() scenario.Suite {
	base := weakScenario("conv", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "diminishing", BaseIterations: 50000, CriticalBatchGrowth: 24}, 0)
	fallback := weakScenario("conv per iteration", tree(3e9), nil, 40)
	graph := scenario.Scenario{
		Name: "bp",
		Workload: scenario.WorkloadSpec{
			Family: "mrf",
			Graph:  &scenario.GraphSpec{Family: "dns", Vertices: 400, Seed: 7},
			States: 2,
			Trials: 2,
		},
		Hardware:   scenario.HardwareSpec{Preset: "dl980-core"},
		Protocol:   scenario.ProtocolSpec{Kind: "shared-memory"},
		MaxWorkers: 24,
	}
	return scenario.Suite{
		Name:      "shared curves",
		Objective: "pareto",
		Scenarios: []scenario.Scenario{fallback, graph},
		Sweep: &scenario.Sweep{
			Base:                 base,
			Protocols:            []string{"two-stage-tree", "ring"},
			BandwidthsBitsPerSec: []float64{5e8, 2e9, 8e9},
			MaxWorkers:           []int{8, 40, 16, 0, 28},
		},
	}
}

// modelKey groups plans by model: the scenario's evaluation inputs with the
// worker bound and name left out.
func modelKey(sc scenario.Scenario) string {
	sc.Name = "model"
	sc.MaxWorkers = 1
	return sc.EvalKey()
}

// TestSharedCurvesMatchPlanScenario: on a multi-bound grid with refinement,
// every plan's curve is bit-equal to planning its scenario alone, at any
// parallelism, and the declared cells of one model share one backing array.
func TestSharedCurvesMatchPlanScenario(t *testing.T) {
	defer core.SetParallelism(0)
	for _, parallel := range []int{1, 8} {
		core.SetParallelism(parallel)
		report, stats, err := PlanSuiteCtx(context.Background(), curveSuite(), "", parallel, Options{Prune: true, RefineRounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Refined == 0 {
			t.Fatalf("parallel=%d: refinement added no cells", parallel)
		}
		arrays := map[string]*Point{}
		evaluated := 0
		for _, p := range report.Plans {
			if p.Err != nil {
				t.Fatalf("parallel=%d: %s: %v", parallel, p.Scenario.Name, p.Err)
			}
			if p.Pruned {
				continue
			}
			evaluated++
			alone, err := PlanScenario(p.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCurve(p.Curve, alone.Curve) || p.Optimal != alone.Optimal {
				t.Errorf("parallel=%d: %s: curve or optimum differs from planning it alone", parallel, p.Scenario.Name)
			}
			if p.Refined {
				continue
			}
			k := modelKey(p.Scenario)
			if first, ok := arrays[k]; !ok {
				arrays[k] = &p.Curve[0]
			} else if first != &p.Curve[0] {
				t.Errorf("parallel=%d: %s: its own curve array, not its model's", parallel, p.Scenario.Name)
			}
		}
		if evaluated == len(arrays) {
			t.Errorf("parallel=%d: no two evaluated declared cells share a model; the check saw no sharing", parallel)
		}
	}
}

// TestPlanSuiteCurveAllocs: a pass over two models at eight worker bounds
// each allocates one curve per model, at the largest bound, not one per
// cell. The curves dwarf everything else the pass allocates.
func TestPlanSuiteCurveAllocs(t *testing.T) {
	core.SetParallelism(1)
	defer core.SetParallelism(0)
	const top = 8 << 10
	var bounds []int
	sum := 0
	for b := top / 8; b <= top; b += top / 8 {
		bounds = append(bounds, b)
		sum += b
	}
	s := scenario.Suite{
		Name: "curve allocs",
		Sweep: &scenario.Sweep{
			Base: weakScenario("conv", tree(1e9),
				&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 0),
			Protocols:  []string{"two-stage-tree", "ring"},
			MaxWorkers: bounds,
		},
	}
	plan := func() {
		report, stats, err := PlanSuiteCtx(context.Background(), s, "", 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Plans) != 16 || stats.PricedPoints != 2*top {
			t.Fatalf("%d plans priced %d points, want 16 plans and %d points", len(report.Plans), stats.PricedPoints, 2*top)
		}
	}
	plan()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		plan()
	}
	runtime.ReadMemStats(&after)
	perPass := (after.TotalAlloc - before.TotalAlloc) / runs
	point := uint64(unsafe.Sizeof(Point{}))
	shared, perCell := 2*top*point, 2*uint64(sum)*point
	if limit := (shared + perCell) / 2; perPass > limit {
		t.Errorf("one pass allocated %d bytes, over %d: one curve per model is %d bytes, one per cell %d",
			perPass, limit, shared, perCell)
	}
}

// TestPlanScenarioIsOneCellPass: planning a scenario alone prices exactly
// its own axis, like a one-cell suite.
func TestPlanScenarioIsOneCellPass(t *testing.T) {
	sc := weakScenario("alone", tree(1e9), &scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 48)
	p, err := PlanScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	report, stats, err := PlanSuiteCtx(context.Background(), scenario.Suite{Name: "one", Scenarios: []scenario.Scenario{sc}}, "", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PricedPoints != 48 || !sameCurve(p.Curve, report.Plans[0].Curve) || cap(p.Curve) != 48 {
		t.Errorf("one-cell pass priced %d points; curves equal %v, cap %d",
			stats.PricedPoints, sameCurve(p.Curve, report.Plans[0].Curve), cap(p.Curve))
	}
}
