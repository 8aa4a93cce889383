package dmlscale_test

import (
	"context"
	"math"
	"testing"

	"dmlscale"
	"dmlscale/internal/bp"
	"dmlscale/internal/graph"
	"dmlscale/internal/scenario"
)

func fig2Workload() dmlscale.Workload {
	return dmlscale.Workload{
		Name:            "fully connected ANN",
		FlopsPerExample: 6 * 12e6,
		BatchSize:       60000,
		ModelBits:       64 * 12e6,
	}
}

func TestGradientDescentFacade(t *testing.T) {
	model, err := dmlscale.GradientDescent(fig2Workload(), dmlscale.XeonE31240(), dmlscale.SparkComm())
	if err != nil {
		t.Fatal(err)
	}
	n, s, err := model.OptimalWorkers(13)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("optimal workers = %d, want the paper's 9", n)
	}
	if s < 3.5 || s > 5 {
		t.Errorf("peak speedup = %v, want ≈ 4.1", s)
	}
}

func TestGradientDescentWeakFacade(t *testing.T) {
	w := dmlscale.Workload{
		Name:            "inception",
		FlopsPerExample: 3 * 5e9,
		BatchSize:       128,
		ModelBits:       32 * 25e6,
	}
	model, err := dmlscale.GradientDescentWeak(w, dmlscale.NvidiaK40(),
		dmlscale.TwoStageTreeComm(1e9))
	if err != nil {
		t.Fatal(err)
	}
	s := model.SpeedupRelative(50, 100)
	if s < 1.4 || s > 2.1 {
		t.Errorf("s(100 vs 50) = %v, want ≈ 1.7", s)
	}
}

func TestGraphInferenceFacade(t *testing.T) {
	degrees, err := graph.ScaledDNSGraph(8000).Degrees(5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dmlscale.GraphInference("bp", degrees, bp.OpsPerEdge(2),
		dmlscale.Flops(0.6e9), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s := model.Speedup(1); math.Abs(s-1) > 1e-9 {
		t.Errorf("s(1) = %v", s)
	}
	s8 := model.Speedup(8)
	if s8 <= 1 || s8 > 8 {
		t.Errorf("s(8) = %v, want in (1, 8]", s8)
	}
	// Caching: repeated evaluation is consistent.
	if model.Speedup(8) != s8 {
		t.Error("cached speedup changed between calls")
	}
}

func TestCommFacades(t *testing.T) {
	protocols := []dmlscale.CommModel{
		dmlscale.LinearComm(1e9),
		dmlscale.TreeComm(1e9),
		dmlscale.TwoStageTreeComm(1e9),
		dmlscale.SparkComm(),
		dmlscale.SparkCommOn(10e9),
		dmlscale.RingAllReduceComm(1e9),
		dmlscale.PipelinedTreeComm(1e9, 32),
		dmlscale.SharedMemoryComm(),
	}
	for _, p := range protocols {
		if p.Name() == "" {
			t.Error("protocol without a name")
		}
		if d := p.Time(1e6, 4); d < 0 {
			t.Errorf("%s: negative time", p.Name())
		}
	}
	// Shared memory is free.
	if d := dmlscale.SharedMemoryComm().Time(1e9, 64); d != 0 {
		t.Errorf("shared memory time = %v", d)
	}
}

func TestWorkersHelper(t *testing.T) {
	ws := dmlscale.Workers(1, 5)
	if len(ws) != 5 || ws[0] != 1 || ws[4] != 5 {
		t.Errorf("Workers(1,5) = %v", ws)
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	ids := dmlscale.ExperimentIDs()
	if len(ids) < 6 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	found := false
	for _, id := range ids {
		if id == "tab1" {
			found = true
		}
	}
	if !found {
		t.Error("tab1 not registered")
	}
	res, err := dmlscale.RunExperiment("tab1")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "tab1" || res.Table == nil {
		t.Errorf("RunExperiment(tab1) = %+v", res)
	}
	if _, err := dmlscale.RunExperiment("bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestGraphInferenceRejectsDegenerateInputs(t *testing.T) {
	if _, err := dmlscale.GraphInference("bad", nil, 14, 1e9, 2, 0); err == nil {
		t.Error("empty degree sequence accepted")
	}
	if _, err := dmlscale.GraphInference("bad", []int32{1, 2}, 0, 1e9, 2, 0); err == nil {
		t.Error("zero ops per edge accepted")
	}
	if _, err := dmlscale.GraphInference("bad", []int32{1, 2}, 14, 1e9, 0, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRegistryCatalogFacades(t *testing.T) {
	if len(dmlscale.ProtocolKinds()) < 10 {
		t.Errorf("protocol kinds = %v", dmlscale.ProtocolKinds())
	}
	if len(dmlscale.HardwarePresets()) < 3 {
		t.Errorf("hardware presets = %v", dmlscale.HardwarePresets())
	}
	if len(dmlscale.WorkloadFamilies()) != 5 {
		t.Errorf("workload families = %v", dmlscale.WorkloadFamilies())
	}
	if len(dmlscale.Architectures()) < 5 {
		t.Errorf("architectures = %v", dmlscale.Architectures())
	}
	if len(dmlscale.GraphFamilies()) < 4 {
		t.Errorf("graph families = %v", dmlscale.GraphFamilies())
	}
	p, err := dmlscale.Protocol("ring", 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time(1e9, 4) != 1.5 {
		t.Errorf("ring t = %v, want 1.5", p.Time(1e9, 4))
	}
	if _, err := dmlscale.Protocol("warp", 1e9); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestSuiteFacade(t *testing.T) {
	suite := dmlscale.Suite{
		Name: "facade suite",
		Sweep: &dmlscale.Sweep{
			Base:                 scenario.Fig2(),
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
			Protocols:            []string{"spark", "ring", "linear", "two-stage-tree"},
		},
	}
	results, _, err := dmlscale.EvaluateSuite(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("suite produced %d results, want 8", len(results))
	}
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v", res.Scenario.Name, res.Err)
			continue
		}
		if res.OptimalN < 1 || res.PeakSpeedup < 1 {
			t.Errorf("%s: optimum %d (%.2f×)", res.Scenario.Name, res.OptimalN, res.PeakSpeedup)
		}
	}
	// Faster links push the optimum out (or at least never pull it in):
	// compare the 1 and 10 Gbit/s spark variants.
	var slow, fast dmlscale.SuiteResult
	for _, res := range results {
		if res.Scenario.Protocol.Kind != "spark" {
			continue
		}
		if res.Scenario.Protocol.BandwidthBitsPerSec == 1e9 {
			slow = res
		} else {
			fast = res
		}
	}
	if fast.PeakSpeedup < slow.PeakSpeedup {
		t.Errorf("10 Gbit/s peak %.2f below 1 Gbit/s peak %.2f", fast.PeakSpeedup, slow.PeakSpeedup)
	}
}

func TestHardwareCatalogFacade(t *testing.T) {
	if f := float64(dmlscale.XeonE31240().EffectiveFlops()); math.Abs(f-0.8*105.6e9) > 1 {
		t.Errorf("Xeon effective flops = %v", f)
	}
	if f := float64(dmlscale.NvidiaK40().EffectiveFlops()); math.Abs(f-0.5*4.28e12) > 1 {
		t.Errorf("K40 effective flops = %v", f)
	}
	if dmlscale.GigabitEthernet().Bandwidth != 1e9 {
		t.Error("gigabit bandwidth wrong")
	}
}
