package main

import (
	"testing"

	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// TestFlagScenarioBuildsThroughRegistry: the CLI's flag-assembled scenario
// resolves every protocol name through the one registry.
func TestFlagScenarioBuildsThroughRegistry(t *testing.T) {
	known := []string{"linear", "tree", "two-stage-tree", "spark", "ring", "shuffle", "shared-memory"}
	for _, name := range known {
		sc := scenario.Scenario{
			Name: "flags",
			Workload: scenario.WorkloadSpec{
				FlopsPerExample: 6 * 12e6,
				BatchSize:       60000,
				Parameters:      12e6,
				PrecisionBits:   64,
			},
			Hardware: scenario.HardwareSpec{PeakFlops: 105.6e9, Efficiency: 0.8},
			Protocol: scenario.ProtocolSpec{Kind: name, BandwidthBitsPerSec: 1e9},
		}
		model, err := sc.Model()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if model.Time(4) < 0 {
			t.Errorf("%s: negative time", name)
		}
	}
	sc := scenario.Scenario{Name: "bad", Protocol: scenario.ProtocolSpec{Kind: "warp"}}
	if _, err := sc.Model(); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestFamilyFlagValues: every family the -family flag advertises builds for
// a gradient-descent-shaped spec or fails with a clear error (graph
// families need -config).
func TestFamilyFlagValues(t *testing.T) {
	for _, family := range registry.Families() {
		sc := scenario.Scenario{
			Name: family,
			Workload: scenario.WorkloadSpec{
				Family:          family,
				FlopsPerExample: 1e9,
				BatchSize:       100,
				Parameters:      1e6,
			},
			Hardware: scenario.HardwareSpec{PeakFlops: 1e12, Efficiency: 0.5},
			Protocol: scenario.ProtocolSpec{Kind: "tree", BandwidthBitsPerSec: 1e9},
		}
		_, err := sc.Model()
		switch family {
		case "graph-inference", "mrf":
			if err == nil {
				t.Errorf("%s: flag-only scenario accepted without a graph spec", family)
			}
		default:
			if err != nil {
				t.Errorf("%s: %v", family, err)
			}
		}
	}
}
