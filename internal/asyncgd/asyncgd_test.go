package asyncgd

import (
	"math"
	"testing"
)

func testModel() Model {
	return Model{
		ComputePerBatch:    1.0,
		CommPerUpdate:      0.05,
		ConvergencePenalty: 0.02,
	}
}

func TestValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testModel()
	bad.ComputePerBatch = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero compute accepted")
	}
	bad = testModel()
	bad.ConvergencePenalty = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative penalty accepted")
	}
}

func TestStaleness(t *testing.T) {
	m := testModel()
	if s := m.Staleness(1); s != 0 {
		t.Errorf("staleness(1) = %v, want 0", s)
	}
	// Staleness grows with workers and is bounded by n−1.
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16} {
		s := m.Staleness(n)
		if s <= prev {
			t.Errorf("staleness(%d) = %v, not increasing", n, s)
		}
		if s >= float64(n) {
			t.Errorf("staleness(%d) = %v, should stay below n", n, s)
		}
		prev = s
	}
}

func TestUpdateTimeServerBottleneck(t *testing.T) {
	m := testModel()
	// With few workers the producers bound throughput.
	if got, want := float64(m.UpdateTime(1)), 1.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("UpdateTime(1) = %v, want %v", got, want)
	}
	// With many workers the parameter server's service time binds.
	if got, want := float64(m.UpdateTime(1000)), 0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("UpdateTime(1000) = %v, want comm bound %v", got, want)
	}
}

func TestEffectiveSpeedupBelowRaw(t *testing.T) {
	m := testModel()
	for _, n := range []int{2, 8, 32} {
		if m.EffectiveSpeedup(n) >= m.RawSpeedup(n) {
			t.Errorf("n=%d: effective %v not below raw %v",
				n, m.EffectiveSpeedup(n), m.RawSpeedup(n))
		}
	}
	// Without a penalty the two coincide.
	free := m
	free.ConvergencePenalty = 0
	if free.EffectiveSpeedup(8) != free.RawSpeedup(8) {
		t.Error("zero penalty should not change speedup")
	}
}

func TestOptimalWorkersFinite(t *testing.T) {
	// A strong penalty makes very wide clusters counterproductive, so the
	// optimum is interior.
	m := Model{ComputePerBatch: 1, CommPerUpdate: 0.01, ConvergencePenalty: 0.2}
	n, s, err := m.OptimalWorkers(256)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 1 || n >= 256 {
		t.Errorf("optimum n = %d, want interior", n)
	}
	if s <= 1 {
		t.Errorf("optimum speedup = %v, want > 1", s)
	}
	if _, _, err := m.OptimalWorkers(0); err == nil {
		t.Error("maxN 0 accepted")
	}
}

func TestCoreModelConsistent(t *testing.T) {
	m := testModel()
	cm := m.CoreModel("async")
	for _, n := range []int{1, 4, 16} {
		want := m.EffectiveSpeedup(n) / m.EffectiveSpeedup(1)
		if got := cm.Speedup(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("core speedup(%d) = %v, want %v", n, got, want)
		}
	}
}
