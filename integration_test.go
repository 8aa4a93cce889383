package dmlscale_test

// Integration tests exercising the substrates together: the cost counter
// feeding the analytic model, and the simulators validating the model the
// way the paper's experiments do.

import (
	"math"
	"testing"

	"dmlscale"
	"dmlscale/internal/bp"
	"dmlscale/internal/comm"
	"dmlscale/internal/gd"
	"dmlscale/internal/graph"
	"dmlscale/internal/hardware"
	"dmlscale/internal/metrics"
	"dmlscale/internal/mrf"
	"dmlscale/internal/nncost"
	"dmlscale/internal/scenario"
	"dmlscale/internal/sparksim"
	"dmlscale/internal/units"
)

// TestCostCounterFeedsModel: deriving the Fig. 2 workload from the actual
// architecture (instead of the paper's rounded constants) reproduces the
// same optimum.
func TestCostCounterFeedsModel(t *testing.T) {
	summary, err := nncost.MNISTFullyConnected().Summarize()
	if err != nil {
		t.Fatal(err)
	}
	w := dmlscale.Workload{
		Name:            summary.Name,
		FlopsPerExample: float64(summary.TrainingFlops()),
		BatchSize:       60000,
		ModelBits:       dmlscale.Bits(64 * summary.Weights),
	}
	model, err := dmlscale.GradientDescent(w, dmlscale.XeonE31240(), dmlscale.SparkComm())
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := model.OptimalWorkers(13)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("architecture-derived optimum = %d, want 9", n)
	}
}

// TestModelAgainstSimulatedExperiment: the full Fig. 2 validation loop —
// analytic model vs the discrete-event Spark cluster — inside one test,
// asserting the paper's headline conclusions.
func TestModelAgainstSimulatedExperiment(t *testing.T) {
	w := gd.Workload{
		Name:            "fc",
		FlopsPerExample: 6 * 12e6,
		BatchSize:       60000,
		ModelBits:       units.Bits(64 * 12e6),
	}
	model, err := gd.Model(w, hardware.XeonE31240(), comm.SparkGradient(units.Gbps))
	if err != nil {
		t.Fatal(err)
	}
	workers := dmlscale.Workers(1, 13)
	modelCurve, err := model.SpeedupCurve(workers)
	if err != nil {
		t.Fatal(err)
	}
	simCurve, err := sparksim.SpeedupCurve(sparksim.PaperFig2Config(), workers, 2)
	if err != nil {
		t.Fatal(err)
	}
	mape, err := metrics.MAPE(simCurve.Speedups(), modelCurve.Speedups())
	if err != nil {
		t.Fatal(err)
	}
	if mape > 25 {
		t.Errorf("model-vs-simulation MAPE = %.1f%%, want the paper's neighbourhood", mape)
	}
	// Both curves agree that one-digit clusters are where the speedup
	// peaks.
	mPeak, _ := modelCurve.Peak()
	sPeak, _ := simCurve.Peak()
	if mPeak.N > 9 || sPeak.N > 9 {
		t.Errorf("peaks at model=%d sim=%d, want ≤ 9", mPeak.N, sPeak.N)
	}
}

// TestBPSpeedupModelAgainstRealPartition: the facade's GraphInference model
// and the real per-worker loads of a materialized graph tell the same
// story — heavy-tailed degrees cap the speedup below linear.
func TestBPSpeedupModelAgainstRealPartition(t *testing.T) {
	spec := graph.ScaledDNSGraph(6000)
	degrees, err := spec.Degrees(3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dmlscale.GraphInference("bp", degrees, bp.OpsPerEdge(2),
		dmlscale.Flops(1e9), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	s16 := model.Speedup(16)
	if s16 >= 16 {
		t.Errorf("model s(16) = %v; skew should keep it below linear", s16)
	}
	if s16 < 2 {
		t.Errorf("model s(16) = %v; the graph is not that skewed", s16)
	}
}

// TestRealBPOnSyntheticDNSGraph: materialize a small DNS-like graph, run
// the actual message-passing algorithm in parallel, and verify the paper's
// op accounting against the run.
func TestRealBPOnSyntheticDNSGraph(t *testing.T) {
	spec := graph.ScaledDNSGraph(3000)
	degrees, err := spec.Degrees(5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ChungLu(degrees, 6)
	if err != nil {
		t.Fatal(err)
	}
	model, err := mrf.Ising(g, 0.15, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bp.Run(model, bp.Options{MaxIterations: 60, Workers: 4, Damping: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("BP did not converge (residual %g)", res.Residual)
	}
	wantOps := float64(res.Iterations) * float64(g.NumEdges()) * bp.OpsPerEdge(2)
	if math.Abs(res.Operations-wantOps) > 0.5 {
		t.Errorf("op accounting %v, want %v", res.Operations, wantOps)
	}
}

// TestScenarioDrivesFacade: a JSON scenario round-trips into the same model
// the facade builds directly.
func TestScenarioDrivesFacade(t *testing.T) {
	sc := scenario.Fig2()
	fromScenario, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := dmlscale.GradientDescent(dmlscale.Workload{
		Name:            "direct",
		FlopsPerExample: 6 * 12e6,
		BatchSize:       60000,
		ModelBits:       64 * 12e6,
	}, dmlscale.XeonE31240(), dmlscale.SparkComm())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 9, 13} {
		a, b := float64(fromScenario.Time(n)), float64(direct.Time(n))
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("t(%d): scenario %v vs direct %v", n, a, b)
		}
	}
}
