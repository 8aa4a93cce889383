package gd

import (
	"math"
	"testing"

	"dmlscale/internal/comm"
	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

func TestWorkloadValidate(t *testing.T) {
	good := Workload{Name: "w", FlopsPerExample: 1, BatchSize: 1, ModelBits: 1}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Workload{
		{Name: "w", BatchSize: 1, ModelBits: 1},
		{Name: "w", FlopsPerExample: 1, ModelBits: 1},
		{Name: "w", FlopsPerExample: 1, BatchSize: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("workload %+v accepted", bad)
		}
	}
}

// TestModelPaperFig2Values pins the analytic model to hand-computed values
// of the Fig. 2 setup at n = 1 and n = 4.
func TestModelPaperFig2Values(t *testing.T) {
	w := Workload{
		Name:            "fc mnist",
		FlopsPerExample: 6 * 12e6,
		BatchSize:       60000,
		ModelBits:       units.Bits(64 * 12e6),
	}
	m, err := Model(w, hardware.XeonE31240(), comm.SparkGradient(units.Gbps))
	if err != nil {
		t.Fatal(err)
	}
	// t_cp(1) = 6·12e6·60000 / 84.48e9 ≈ 51.136 s; t_cm(1) = 2·0.768.
	want1 := 6.0*12e6*60000/84.48e9 + 2*0.768
	if got := float64(m.Time(1)); math.Abs(got-want1) > 1e-6 {
		t.Errorf("t(1) = %v, want %v", got, want1)
	}
	// t(4) = t_cp(1)/4 + 0.768·2 + 2·0.768·2.
	want4 := 6.0*12e6*60000/84.48e9/4 + 0.768*2 + 2*0.768*2
	if got := float64(m.Time(4)); math.Abs(got-want4) > 1e-6 {
		t.Errorf("t(4) = %v, want %v", got, want4)
	}
}

func TestModelErrors(t *testing.T) {
	bad := Workload{Name: "bad"}
	if _, err := Model(bad, hardware.XeonE31240(), comm.Zero); err == nil {
		t.Error("invalid workload accepted")
	}
	good := Workload{Name: "ok", FlopsPerExample: 1, BatchSize: 1, ModelBits: 1}
	if _, err := Model(good, hardware.Node{}, comm.Zero); err == nil {
		t.Error("invalid node accepted")
	}
	if _, err := WeakScalingModel(bad, hardware.XeonE31240(), comm.Zero); err == nil {
		t.Error("weak: invalid workload accepted")
	}
	if _, err := WeakScalingModel(good, hardware.Node{}, comm.Zero); err == nil {
		t.Error("weak: invalid node accepted")
	}
}

// TestWeakScalingModelPaperFig3 pins the weak-scaling model to the paper's
// Fig. 3 formula t = ((C·S)/F + 2·(32·W/B)·log n)/n.
func TestWeakScalingModelPaperFig3(t *testing.T) {
	w := Workload{
		Name:            "inception",
		FlopsPerExample: 3 * 5e9,
		BatchSize:       128,
		ModelBits:       units.Bits(32 * 25e6),
	}
	m, err := WeakScalingModel(w, hardware.NvidiaK40(), comm.TwoStageTree{Bandwidth: units.Gbps})
	if err != nil {
		t.Fatal(err)
	}
	f := 0.5 * 4.28e12
	for _, n := range []int{1, 50, 100} {
		logn := 0.0
		if n > 1 {
			logn = math.Log2(float64(n))
		}
		want := (3*5e9*128/f + 2*(32*25e6/1e9)*logn) / float64(n)
		if got := float64(m.Time(n)); math.Abs(got-want) > 1e-9 {
			t.Errorf("t(%d) = %v, want %v", n, got, want)
		}
	}
	// Logarithmic communication allows unbounded weak scaling.
	if m.SpeedupRelative(50, 200) <= 1 {
		t.Error("weak scaling should improve past 50 workers with log communication")
	}
}
