package convergence

import (
	"math"
	"testing"

	"dmlscale/internal/units"
)

// weakIterationTime mimics the Fig. 3 shape: fixed per-worker compute plus
// log-tree communication.
func weakIterationTime(n int) units.Seconds {
	comm := 0.0
	if n > 1 {
		comm = 0.2 * math.Log2(float64(n))
	}
	return units.Seconds(1 + comm)
}

func testModel(rule IterationRule) TradeoffModel {
	return TradeoffModel{
		Name:           "test",
		IterationTime:  weakIterationTime,
		BaseIterations: 1000,
		Rule:           rule,
	}
}

func TestRules(t *testing.T) {
	if got := LinearScalingRule(4); got != 0.25 {
		t.Errorf("linear(4) = %v", got)
	}
	if got := SqrtScalingRule(4); got != 0.5 {
		t.Errorf("sqrt(4) = %v", got)
	}
	rule := DiminishingRule(8)
	if got := rule(4); got != 0.25 {
		t.Errorf("diminishing(4) = %v, want 1/4", got)
	}
	if got := rule(16); got != 0.125 {
		t.Errorf("diminishing(16) = %v, want 1/8 (clamped)", got)
	}
	if got := rule(64); got != 0.125 {
		t.Errorf("diminishing(64) = %v, want 1/8 (clamped)", got)
	}
}

func TestValidate(t *testing.T) {
	if err := testModel(LinearScalingRule).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testModel(LinearScalingRule)
	bad.IterationTime = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil iteration time accepted")
	}
	bad = testModel(LinearScalingRule)
	bad.BaseIterations = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero base iterations accepted")
	}
	bad = testModel(nil)
	if err := bad.Validate(); err == nil {
		t.Error("nil rule accepted")
	}
}

func TestIterationsAndTime(t *testing.T) {
	m := testModel(LinearScalingRule)
	if got := m.Iterations(4); got != 250 {
		t.Errorf("iterations(4) = %v, want 250", got)
	}
	want := 250 * float64(weakIterationTime(4))
	if got := float64(m.TimeToAccuracy(4)); math.Abs(got-want) > 1e-9 {
		t.Errorf("time(4) = %v, want %v", got, want)
	}
}

func TestLinearRuleKeepsScaling(t *testing.T) {
	m := testModel(LinearScalingRule)
	// Under the linear rule, speedup keeps growing (communication only
	// logarithmic).
	if m.Speedup(64) <= m.Speedup(8) {
		t.Errorf("linear rule should keep improving: s(8)=%v s(64)=%v",
			m.Speedup(8), m.Speedup(64))
	}
}

func TestSqrtRuleScalesWorse(t *testing.T) {
	lin := testModel(LinearScalingRule)
	sqrt := testModel(SqrtScalingRule)
	for _, n := range []int{2, 8, 64} {
		if sqrt.Speedup(n) >= lin.Speedup(n) {
			t.Errorf("n=%d: sqrt rule %v should trail linear rule %v",
				n, sqrt.Speedup(n), lin.Speedup(n))
		}
	}
}

func TestDiminishingRuleInteriorOptimum(t *testing.T) {
	m := testModel(DiminishingRule(16))
	n, s, err := m.OptimalWorkers(512)
	if err != nil {
		t.Fatal(err)
	}
	// Past the critical batch, more workers only add communication, so
	// the optimum sits at or just above the critical growth.
	if n < 8 || n > 32 {
		t.Errorf("optimum n = %d, want near the critical batch growth 16", n)
	}
	if s <= 1 {
		t.Errorf("optimum speedup = %v", s)
	}
}

func TestBatchGrowthOverride(t *testing.T) {
	// A fixed-batch (strong-scaling) workload grows no batch: with
	// BatchGrowth pinned to 1, every rule leaves the iteration count at its
	// base and time-to-accuracy is just iterations × iteration time.
	fixed := testModel(DiminishingRule(4))
	fixed.BatchGrowth = func(int) float64 { return 1 }
	for _, n := range []int{1, 2, 16, 64} {
		if got := fixed.Iterations(n); got != fixed.BaseIterations {
			t.Errorf("iterations(%d) = %v, want base %v", n, got, fixed.BaseIterations)
		}
	}
	// Nil keeps the weak-scaling default k(n) = n.
	def := testModel(LinearScalingRule)
	if def.Growth(8) != 8 {
		t.Errorf("default growth(8) = %v, want 8", def.Growth(8))
	}
	if fixed.Growth(8) != 1 {
		t.Errorf("pinned growth(8) = %v, want 1", fixed.Growth(8))
	}
}

func TestSpeedupIdentityAtOne(t *testing.T) {
	m := testModel(SqrtScalingRule)
	if s := m.Speedup(1); math.Abs(s-1) > 1e-12 {
		t.Errorf("s(1) = %v", s)
	}
}

func TestOptimalWorkersErrors(t *testing.T) {
	m := testModel(LinearScalingRule)
	if _, _, err := m.OptimalWorkers(0); err == nil {
		t.Error("maxN 0 accepted")
	}
	bad := m
	bad.IterationTime = nil
	if _, _, err := bad.OptimalWorkers(8); err == nil {
		t.Error("invalid model accepted")
	}
}
