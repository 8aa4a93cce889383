package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dmlscale/internal/comm"
	"dmlscale/internal/units"
)

// familyScenarios returns one scenario per workload family the public API
// exposes, each small enough for fast tests.
func familyScenarios() []Scenario {
	gdStrong := Fig2()
	gdStrong.Name = "gd-strong"

	gdWeak := Fig3()
	gdWeak.Name = "gd-weak"
	gdWeak.MaxWorkers = 32

	graphInference := Scenario{
		Name: "graph-inference",
		Workload: WorkloadSpec{
			Family:     "graph-inference",
			Graph:      &GraphSpec{Family: "dns", Vertices: 3000, Seed: 5},
			OpsPerEdge: 14,
			Trials:     2,
		},
		Hardware: HardwareSpec{Preset: "dl980-core"},
		Protocol: ProtocolSpec{Kind: "shared-memory"},
	}

	mrf := Scenario{
		Name: "mrf",
		Workload: WorkloadSpec{
			Family: "mrf",
			Graph:  &GraphSpec{Family: "grid", Vertices: 900},
			States: 3,
			Trials: 2,
		},
		Hardware: HardwareSpec{Preset: "dl980-core"},
		Protocol: ProtocolSpec{Kind: "shared-memory"},
	}

	async := Scenario{
		Name: "async-gd",
		Workload: WorkloadSpec{
			Family:             "async-gd",
			FlopsPerExample:    6 * 12e6,
			BatchSize:          60000,
			Parameters:         12e6,
			PrecisionBits:      64,
			ConvergencePenalty: 0.02,
		},
		Hardware: HardwareSpec{Preset: "xeon-e3-1240"},
		Protocol: ProtocolSpec{Kind: "spark", BandwidthBitsPerSec: 1e9},
	}

	return []Scenario{gdStrong, gdWeak, graphInference, mrf, async}
}

// TestEveryFamilyRoundTrips: encode → decode → Model() → Time(n) is
// identical for every workload family — the registry makes every model
// family the public API exposes reachable from a JSON file.
func TestEveryFamilyRoundTrips(t *testing.T) {
	for _, sc := range familyScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sc.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want, err := sc.Model()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Model()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 8, sc.MaxN()} {
				a, b := float64(want.Time(n)), float64(got.Time(n))
				if math.Abs(a-b) > 1e-12*math.Max(1, math.Abs(a)) {
					t.Errorf("t(%d): original %v vs round-tripped %v", n, a, b)
				}
			}
			if s := got.Speedup(1); math.Abs(s-1) > 1e-9 {
				t.Errorf("s(1) = %v", s)
			}
		})
	}
}

// TestGoldenTimes pins the decoded models to the paper's closed forms.
func TestGoldenTimes(t *testing.T) {
	// gd-strong on spark: t(4) = C·S/(F·4) + spark(64W bits, 4).
	model, err := Fig2().Model()
	if err != nil {
		t.Fatal(err)
	}
	wantComp := 6.0 * 12e6 * 60000 / (4 * 0.8 * 105.6e9)
	wantComm := float64(comm.SparkGradient(units.Gbps).Time(units.Bits(64*12e6), 4))
	if got := float64(model.Time(4)); math.Abs(got-(wantComp+wantComm)) > 1e-9 {
		t.Errorf("fig2 t(4) = %v, want %v", got, wantComp+wantComm)
	}
	// gd-weak on two-stage tree: t(n) = (C·S/F + 2·log2(n)·32W/B)/n.
	model, err = Fig3().Model()
	if err != nil {
		t.Fatal(err)
	}
	wantWeak := (3*5e9*128/(0.5*4.28e12) + 2*math.Log2(8)*32*25e6/1e9) / 8
	if got := float64(model.Time(8)); math.Abs(got-wantWeak) > 1e-9 {
		t.Errorf("fig3 t(8) = %v, want %v", got, wantWeak)
	}
}

// TestLegacyScalingField: the pre-registry schema still decodes, and a
// conflicting family/scaling pair is rejected.
func TestLegacyScalingField(t *testing.T) {
	legacy := `{
		"name": "legacy weak",
		"workload": {"flops_per_example": 1e9, "batch_size": 128, "parameters": 1e6},
		"hardware": {"preset": "nvidia-k40"},
		"protocol": {"kind": "tree", "bandwidth_bits_per_sec": 1e9},
		"scaling": "weak"
	}`
	sc, err := Decode(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	family, err := sc.Family()
	if err != nil {
		t.Fatal(err)
	}
	if family != "gd-weak" {
		t.Errorf("legacy scaling resolved to %q", family)
	}
	sc.Workload.Family = "gd-strong"
	if _, err := sc.Model(); err == nil {
		t.Error("conflicting scaling/family accepted")
	}
	sc.Workload.Family = "gd-weak" // the same family: fine
	if _, err := sc.Model(); err != nil {
		t.Errorf("matching family rejected: %v", err)
	}
	sc.Workload.Family = "weak" // a scaling word is not a family name
	if _, err := sc.Model(); err == nil {
		t.Error("family \"weak\" accepted")
	}
}

// TestComposedProtocolScenario: a scenario can compose protocols (per-iter
// over a sum with latency) purely in JSON.
func TestComposedProtocolScenario(t *testing.T) {
	sc := Fig2()
	sc.Protocol = ProtocolSpec{
		Kind:  "sum",
		Label: "broadcast+aggregate",
		Of: []ProtocolSpec{
			{Kind: "tree", BandwidthBitsPerSec: 1e9},
			{Kind: "sqrt-waves", BandwidthBitsPerSec: 1e9},
		},
	}
	model, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	// tree + 2-wave sqrt aggregation is exactly the spark protocol.
	spark := Fig2()
	want, err := spark.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 9} {
		a, b := float64(model.Time(n)), float64(want.Time(n))
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("t(%d): composed %v vs spark %v", n, a, b)
		}
	}
}

// TestArchitectureScenario: naming a cataloged architecture fills the
// workload figures from the cost counter.
func TestArchitectureScenario(t *testing.T) {
	sc := Scenario{
		Name: "counted fc-mnist",
		Workload: WorkloadSpec{
			Architecture:  "fc-mnist",
			BatchSize:     60000,
			PrecisionBits: 64,
		},
		Hardware: HardwareSpec{Preset: "xeon-e3-1240"},
		Protocol: ProtocolSpec{Kind: "spark", BandwidthBitsPerSec: 1e9},
	}
	model, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := model.OptimalWorkers(13)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("optimum from counted architecture = %d, want 9", n)
	}
}

// TestFig4Scenario: the new default BP scenario builds and stays sublinear.
func TestFig4Scenario(t *testing.T) {
	model, err := Fig4().Model()
	if err != nil {
		t.Fatal(err)
	}
	s16 := model.Speedup(16)
	if s16 <= 1 || s16 >= 16 {
		t.Errorf("fig4 s(16) = %v, want sublinear but > 1", s16)
	}
}
