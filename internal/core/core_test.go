package core

import (
	"math"
	"testing"
	"testing/quick"

	"dmlscale/internal/units"
)

// exampleModel mirrors the paper's Fig. 1: t_cp = c/n, t_cm = a·n with
// c/a = 196 so the peak lands at n = sqrt(c/a) = 14.
func exampleModel() Model {
	const c, a = 196.0, 1.0
	return Model{
		Name:          "fig1 example",
		Computation:   func(n int) units.Seconds { return units.Seconds(c / float64(n)) },
		Communication: func(n int) units.Seconds { return units.Seconds(a * float64(n)) },
	}
}

func TestSpeedupIdentity(t *testing.T) {
	m := exampleModel()
	if s := m.Speedup(1); math.Abs(s-1) > 1e-12 {
		t.Errorf("s(1) = %v, want 1", s)
	}
}

func TestFig1PeakAt14(t *testing.T) {
	m := exampleModel()
	n, s, err := m.OptimalWorkers(64)
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 {
		t.Errorf("optimal workers = %d, want 14", n)
	}
	if s <= 1 {
		t.Errorf("peak speedup = %v, want > 1", s)
	}
	scalable, err := m.IsScalable(64)
	if err != nil {
		t.Fatal(err)
	}
	if !scalable {
		t.Error("Fig. 1 example should be scalable")
	}
}

func TestSpeedupDeclinesPastPeak(t *testing.T) {
	m := exampleModel()
	if m.Speedup(30) >= m.Speedup(14) {
		t.Errorf("speedup should decline past the peak: s(30)=%v, s(14)=%v",
			m.Speedup(30), m.Speedup(14))
	}
}

func TestTimeIsSumOfPhases(t *testing.T) {
	m := exampleModel()
	for _, n := range []int{1, 2, 14, 100} {
		want := m.Computation(n) + m.Communication(n)
		if got := m.Time(n); math.Abs(float64(got-want)) > 1e-12 {
			t.Errorf("Time(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNilCommunication(t *testing.T) {
	m := Model{
		Name:        "compute only",
		Computation: func(n int) units.Seconds { return units.Seconds(10.0 / float64(n)) },
	}
	// Pure data-parallel compute scales linearly.
	for _, n := range []int{1, 2, 5, 32} {
		if s := m.Speedup(n); math.Abs(s-float64(n)) > 1e-9 {
			t.Errorf("s(%d) = %v, want %d", n, s, n)
		}
	}
	if _, ok := m.CommComputeCrossover(100); ok {
		t.Error("crossover reported for a model without communication")
	}
}

func TestValidate(t *testing.T) {
	if err := (Model{Name: "bad"}).Validate(); err == nil {
		t.Error("nil computation accepted")
	}
	if _, err := (Model{Name: "bad"}).SpeedupCurve([]int{1}); err == nil {
		t.Error("SpeedupCurve on invalid model accepted")
	}
	m := exampleModel()
	if _, err := m.SpeedupCurve(nil); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := m.SpeedupCurve([]int{0}); err == nil {
		t.Error("worker count 0 accepted")
	}
	if _, err := m.SpeedupCurveRelative(0, []int{1}); err == nil {
		t.Error("base 0 accepted")
	}
	if _, _, err := m.OptimalWorkers(0); err == nil {
		t.Error("maxN 0 accepted")
	}
}

func TestSpeedupCurve(t *testing.T) {
	m := exampleModel()
	curve, err := m.SpeedupCurve(Range(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 20 {
		t.Fatalf("curve has %d points, want 20", len(curve.Points))
	}
	peak, ok := curve.Peak()
	if !ok || peak.N != 14 {
		t.Errorf("curve peak at %d, want 14", peak.N)
	}
	if ws := curve.Workers(); ws[0] != 1 || ws[19] != 20 {
		t.Errorf("curve workers = %v", ws)
	}
	if ss := curve.Speedups(); math.Abs(ss[0]-1) > 1e-12 {
		t.Errorf("first speedup = %v, want 1", ss[0])
	}
	if ts := curve.Times(); ts[0] != 197 {
		t.Errorf("t(1) = %v, want 197", ts[0])
	}
}

func TestEmptyCurvePeak(t *testing.T) {
	if _, ok := (Curve{}).Peak(); ok {
		t.Error("empty curve reported a peak")
	}
}

func TestCrossover(t *testing.T) {
	m := exampleModel()
	// comm ≥ comp when a·n ≥ c/n, i.e. n ≥ 14.
	n, ok := m.CommComputeCrossover(100)
	if !ok || n != 14 {
		t.Errorf("crossover = %d (ok=%v), want 14", n, ok)
	}
}

func TestSpeedupRelative(t *testing.T) {
	m := exampleModel()
	// Relative speedup at the base itself is 1.
	if s := m.SpeedupRelative(50, 50); math.Abs(s-1) > 1e-12 {
		t.Errorf("relative s(50;50) = %v, want 1", s)
	}
	// Consistency: s(b,n) = s(n)/s(b).
	want := m.Speedup(20) / m.Speedup(5)
	if got := m.SpeedupRelative(5, 20); math.Abs(got-want) > 1e-9 {
		t.Errorf("s(5,20) = %v, want %v", got, want)
	}
	// The curve form samples the same values.
	c, err := m.SpeedupCurveRelative(5, []int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Points[0].Speedup; math.Abs(s-1) > 1e-12 {
		t.Errorf("curve s(5;5) = %v, want 1", s)
	}
	if s := c.Points[1].Speedup; math.Abs(s-want) > 1e-9 {
		t.Errorf("curve s(5,20) = %v, want %v", s, want)
	}
}

func TestRange(t *testing.T) {
	if got := Range(3, 5); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("Range(3,5) = %v", got)
	}
	if got := Range(5, 3); got != nil {
		t.Errorf("Range(5,3) = %v, want nil", got)
	}
}

// Property: for any model with decreasing computation and nondecreasing
// communication, s(1) = 1 and efficiency ≤ 1 + tolerance.
func TestSpeedupProperties(t *testing.T) {
	f := func(rawC, rawA float64, rawN uint8) bool {
		c := math.Abs(math.Mod(rawC, 1e6)) + 1e-3
		a := math.Abs(math.Mod(rawA, 1e3)) + 1e-6
		n := int(rawN%100) + 1
		m := Model{
			Name:          "prop",
			Computation:   func(k int) units.Seconds { return units.Seconds(c / float64(k)) },
			Communication: func(k int) units.Seconds { return units.Seconds(a * float64(k-1)) },
		}
		s1 := m.Speedup(1)
		sn := m.Speedup(n)
		// Communication only hurts: speedup cannot exceed linear.
		return math.Abs(s1-1) < 1e-9 && sn <= float64(n)+1e-9 && sn > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeakScaled(t *testing.T) {
	// Fixed per-worker compute, logarithmic communication: per-instance
	// speedup keeps growing (the paper's "infinite weak scaling").
	m := WeakScaled("weak",
		func(n int) units.Seconds { return 1 },
		func(n int) units.Seconds {
			if n <= 1 {
				return 0
			}
			return units.Seconds(0.1 * math.Log2(float64(n)))
		},
	)
	s64 := m.SpeedupRelative(1, 64)
	s128 := m.SpeedupRelative(1, 128)
	if s128 <= s64 {
		t.Errorf("weak scaling with log comm should keep growing: s(64)=%v s(128)=%v", s64, s128)
	}

	// Linear communication: per-instance time approaches a constant, so
	// relative speedup flattens (finite scaling).
	lin := WeakScaled("weak linear",
		func(n int) units.Seconds { return 1 },
		func(n int) units.Seconds { return units.Seconds(0.1 * float64(n)) },
	)
	s1k := lin.SpeedupRelative(1, 1000)
	s2k := lin.SpeedupRelative(1, 2000)
	if math.Abs(s2k-s1k) > 0.05*s1k {
		t.Errorf("weak scaling with linear comm should flatten: s(1000)=%v s(2000)=%v", s1k, s2k)
	}
}
