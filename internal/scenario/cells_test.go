package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// sweepSuite is a convergence-free grid over every axis, small enough to
// materialize but wide enough to exercise the odometer.
func sweepSuite() Suite {
	base := Fig2()
	base.Name = "grid"
	return Suite{
		Name: "cells under test",
		Sweep: &Sweep{
			Base:                 base,
			Protocols:            []string{"spark", "tree"},
			Hardware:             []string{"", "dl980-core"},
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
			PrecisionsBits:       []float64{32, 64},
			MaxWorkers:           []int{8, 16},
		},
	}
}

// expand materializes every cell of the suite, in cell order.
func expand(s Suite) ([]Scenario, error) {
	cs, err := s.Cells()
	if err != nil {
		return nil, err
	}
	out := make([]Scenario, cs.Len())
	for i := range out {
		out[i] = cs.At(i).Scenario
	}
	return out, nil
}

// expandSweep materializes a bare sweep as a one-sweep suite.
func expandSweep(sw Sweep) ([]Scenario, error) {
	return expand(Suite{Name: "sweep", Sweep: &sw})
}

// TestCellsMatchExpand pins the cell order: the explicit scenarios first,
// then the grid with protocols outermost and max workers innermost, and
// Next yields exactly the cells At materializes.
func TestCellsMatchExpand(t *testing.T) {
	s := sweepSuite()
	s.Scenarios = []Scenario{Fig3()}
	cs, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 1+32 {
		t.Fatalf("Cells().Len() = %d, want 33", cs.Len())
	}
	for i, want := range map[int]string{
		0:  Fig3().Name,
		1:  "grid, spark, 1 Gbit/s, 32-bit, ≤8 workers",
		2:  "grid, spark, 1 Gbit/s, 32-bit, ≤16 workers",
		32: "grid, tree, dl980-core, 10 Gbit/s, 64-bit, ≤16 workers",
	} {
		if got := cs.At(i).Scenario.Name; got != want {
			t.Errorf("At(%d) = %q, want %q", i, got, want)
		}
	}
	next := cs.Next()
	for i := 0; i < cs.Len(); i++ {
		c, ok := next()
		if !ok || c.Index != i {
			t.Fatalf("Next() yielded index %d (ok=%v), want %d", c.Index, ok, i)
		}
		if at := cs.At(i).Scenario; c.Scenario.Name != at.Name || c.Scenario.EvalKey() != at.EvalKey() {
			t.Errorf("Next() cell %d = %q, At = %q", i, c.Scenario.Name, at.Name)
		}
	}
	if _, ok := next(); ok {
		t.Error("Next() kept yielding past the grid")
	}
}

// TestCellsStampSweptAxes checks the cells expose the numeric axis values
// refinement subdivides.
func TestCellsStampSweptAxes(t *testing.T) {
	cs, err := sweepSuite().Cells()
	if err != nil {
		t.Fatal(err)
	}
	bw := map[float64]int{}
	workers := map[int]int{}
	for i := 0; i < cs.Len(); i++ {
		c := cs.At(i)
		bw[c.SweptBandwidth]++
		workers[c.SweptMaxWorkers]++
		if c.Scenario.MaxWorkers != c.SweptMaxWorkers {
			t.Fatalf("cell %d: MaxWorkers %d but stamped %d", i, c.Scenario.MaxWorkers, c.SweptMaxWorkers)
		}
	}
	if len(bw) != 2 || bw[1e9] != bw[10e9] {
		t.Errorf("bandwidth stamps = %v", bw)
	}
	if len(workers) != 2 || workers[8] != workers[16] {
		t.Errorf("worker stamps = %v", workers)
	}
}

// TestSweepHardwareAxis sweeps node presets: the empty string keeps the
// base's own node, presets override it, and names tell the cells apart.
func TestSweepHardwareAxis(t *testing.T) {
	base := Fig2()
	base.Name = "hw"
	scenarios, err := expandSweep(Sweep{Base: base, Hardware: []string{"", "dl980-core"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scenarios))
	}
	if got := scenarios[0].Hardware.Preset; got != base.Hardware.Preset {
		t.Errorf("empty axis value replaced the base node with %q", got)
	}
	if got := scenarios[1].Hardware.Preset; got != "dl980-core" {
		t.Errorf("preset axis value = %q, want dl980-core", got)
	}
	if scenarios[0].Name == scenarios[1].Name {
		t.Errorf("hardware cells share the name %q", scenarios[0].Name)
	}
	if _, err := expandSweep(Sweep{Base: base, Hardware: []string{"abacus"}}); err == nil {
		t.Error("unknown preset on the hardware axis expanded")
	}
}

// TestSweepDisambiguatesCollidingNames is the regression test for grid-point
// name collisions: axis values that format identically (1e9 vs 1e9+1 both
// render "1 Gbit/s") must still yield unique scenario names.
func TestSweepDisambiguatesCollidingNames(t *testing.T) {
	base := Fig2()
	base.Name = "collide"
	sw := Sweep{
		Base:                 base,
		BandwidthsBitsPerSec: []float64{1e9, 1e9 + 1, 2e9},
		MaxWorkers:           []int{8, 16},
	}
	scenarios, err := expandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, sc := range scenarios {
		if j, dup := seen[sc.Name]; dup {
			t.Fatalf("cells %d and %d share the name %q", j, i, sc.Name)
		}
		seen[sc.Name] = i
	}
	// The unambiguous value keeps its plain label; only the colliding pair
	// gets disambiguated.
	var plain, tagged int
	for name := range seen {
		switch {
		case strings.Contains(name, "#"):
			tagged++
		default:
			plain++
		}
	}
	if tagged != 4 { // 2 colliding bandwidths × 2 worker bounds
		t.Errorf("%d tagged names (want 4) in %v", tagged, seen)
	}
	// Determinism: a second expansion renders the same names.
	again, err := expandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenarios {
		if scenarios[i].Name != again[i].Name {
			t.Fatalf("name %d changed across expansions: %q vs %q", i, scenarios[i].Name, again[i].Name)
		}
	}
}

// TestEvaluateSuiteStreamingBitIdentical pins the streaming evaluation to
// itself across parallelism: results at -parallel 1 and at GOMAXPROCS are
// bit-identical.
func TestEvaluateSuiteStreamingBitIdentical(t *testing.T) {
	s := sweepSuite()
	want, stats, err := EvaluateSuiteStatsCtx(context.Background(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned != 0 || stats.Refined != 0 || stats.RefineRounds != 0 {
		t.Errorf("plain evaluation reported adaptive stats %+v", stats)
	}
	got, _, err := EvaluateSuiteStatsCtx(context.Background(), s, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results vs %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Scenario.Name != w.Scenario.Name || (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("result %d: {%s err=%v} vs {%s err=%v}",
				i, g.Scenario.Name, g.Err, w.Scenario.Name, w.Err)
		}
		if w.Err != nil {
			continue
		}
		if len(g.Curve.Points) != len(w.Curve.Points) {
			t.Fatalf("result %d: %d points vs %d", i, len(g.Curve.Points), len(w.Curve.Points))
		}
		for j := range w.Curve.Points {
			if g.Curve.Points[j] != w.Curve.Points[j] {
				t.Fatalf("result %d point %d differs: %+v vs %+v", i, j, g.Curve.Points[j], w.Curve.Points[j])
			}
		}
	}
}

// TestCellsCapPastExpand checks a 10000-cell grid validates and iterates
// lazily, one cell at a time.
func TestCellsCapPastExpand(t *testing.T) {
	base := Fig2()
	base.Name = "big"
	bw := make([]float64, 100)
	for i := range bw {
		bw[i] = 1e9 + float64(i)*1e7
	}
	workers := make([]int, 100)
	for i := range workers {
		workers[i] = i + 2
	}
	s := Suite{Name: "big grid", Sweep: &Sweep{Base: base, BandwidthsBitsPerSec: bw, MaxWorkers: workers}}
	cs, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 10000 {
		t.Fatalf("Cells().Len() = %d, want 10000", cs.Len())
	}
	if got := cs.At(9999).Scenario; got.MaxWorkers != 101 {
		t.Errorf("last cell MaxWorkers = %d, want 101", got.MaxWorkers)
	}
}

func TestRefineNamesUnique(t *testing.T) {
	sc := Fig2()
	sc.Name = "base"
	a := RefineBandwidth(sc, 1.5e9)
	b := RefineBandwidth(sc, 1.5e9+1)
	if a.Name == b.Name {
		t.Errorf("distinct bandwidths render the same refined name %q", a.Name)
	}
	if a.Protocol.BandwidthBitsPerSec != 1.5e9 {
		t.Errorf("refined bandwidth = %g", a.Protocol.BandwidthBitsPerSec)
	}
	w := RefineMaxWorkers(sc, 12)
	if w.MaxWorkers != 12 || !strings.Contains(w.Name, "12") {
		t.Errorf("refined worker bound = %d named %q", w.MaxWorkers, w.Name)
	}
	if got := fmt.Sprint(a.Name); !strings.Contains(got, sc.Name) {
		t.Errorf("refined name %q dropped the parent name", got)
	}
}
