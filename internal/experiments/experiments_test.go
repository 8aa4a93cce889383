package experiments

import (
	"strings"
	"testing"
)

func TestIDsComplete(t *testing.T) {
	want := []string{"abl-async", "abl-comm", "abl-conv", "abl-part", "fig1", "fig2", "fig3", "fig4", "fig4s", "study-sparkml", "tab1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", QuickOptions()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigure1(t *testing.T) {
	res, err := Run("fig1", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["optimal workers"] != 14 {
		t.Errorf("fig1 optimum = %v, want 14 (the paper's peak)", res.Metrics["optimal workers"])
	}
	if res.Metrics["comm/comp crossover"] != 14 {
		t.Errorf("fig1 crossover = %v, want 14", res.Metrics["comm/comp crossover"])
	}
	if res.Metrics["peak speedup"] <= 1 {
		t.Error("fig1 peak speedup should exceed 1")
	}
	checkRendered(t, res)
}

func TestTable1(t *testing.T) {
	res, err := Run("tab1", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["fc parameters"] != 11965000 {
		t.Errorf("fc parameters = %v", res.Metrics["fc parameters"])
	}
	if res.Metrics["fc computations"] != 23930000 {
		t.Errorf("fc computations = %v", res.Metrics["fc computations"])
	}
	// Inception within the paper's rounded values.
	if w := res.Metrics["inception parameters"]; w < 22e6 || w > 27e6 {
		t.Errorf("inception parameters = %v, want ≈ 25e6", w)
	}
	if ma := res.Metrics["inception multiplyadds"]; ma < 4e9 || ma > 6.5e9 {
		t.Errorf("inception multiply-adds = %v, want ≈ 5e9", ma)
	}
	checkRendered(t, res)
}

func TestFigure2(t *testing.T) {
	res, err := Run("fig2", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["model optimal workers"] != 9 {
		t.Errorf("fig2 model optimum = %v, want the paper's 9", res.Metrics["model optimal workers"])
	}
	mape := res.Metrics["MAPE %"]
	if mape <= 0 || mape > 30 {
		t.Errorf("fig2 MAPE = %v%%, want within (0, 30] (paper: 13.7%%)", mape)
	}
	if peak := res.Metrics["sim peak workers"]; peak < 5 || peak > 9 {
		t.Errorf("fig2 sim peak = %v, want in [5, 9]", peak)
	}
	checkRendered(t, res)
}

func TestFigure3(t *testing.T) {
	res, err := Run("fig3", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	mape := res.Metrics["MAPE %"]
	if mape <= 0 || mape > 10 {
		t.Errorf("fig3 MAPE = %v%%, want within (0, 10] (paper: 1.2%%)", mape)
	}
	if s := res.Metrics["model s(100)"]; s < 1.4 || s > 2.1 {
		t.Errorf("fig3 model s(100) = %v, want ≈ 1.7", s)
	}
	if res.Metrics["log comm grows"] != 1 {
		t.Error("fig3: log communication should allow unbounded weak scaling")
	}
	if res.Metrics["linear comm flat"] != 1 {
		t.Error("fig3: linear communication should flatten")
	}
	checkRendered(t, res)
}

func TestFigure4Quick(t *testing.T) {
	res, err := Run("fig4", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	mape := res.Metrics["MAPE %"]
	if mape < 10 || mape > 45 {
		t.Errorf("fig4 MAPE = %v%%, want the paper's neighbourhood [10, 45]", mape)
	}
	if res.Metrics["model below sim at n=2"] != 1 {
		t.Error("fig4: random assignment should be conservative at few workers")
	}
	if res.Metrics["sim below model at n=80"] != 1 {
		t.Error("fig4: execution overhead should take over at many workers")
	}
	checkRendered(t, res)
}

func TestFigure4SmallQuick(t *testing.T) {
	res, err := Run("fig4s", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PaperComparison) != 3 {
		t.Fatalf("fig4s should compare 3 graph sizes, got %d", len(res.PaperComparison))
	}
	for k, v := range res.Metrics {
		if v < 5 || v > 50 {
			t.Errorf("fig4s %s = %v%%, out of the plausible band", k, v)
		}
	}
	checkRendered(t, res)
}

func TestAblationComm(t *testing.T) {
	res, err := Run("abl-comm", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Tree communication must beat the linear model in peak speedup.
	if res.Metrics["tree peak"] <= res.Metrics["linear peak"] {
		t.Errorf("tree peak %v should beat linear %v",
			res.Metrics["tree peak"], res.Metrics["linear peak"])
	}
	checkRendered(t, res)
}

func TestAblationAsync(t *testing.T) {
	res, err := Run("abl-async", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["async optimal workers"] < 2 {
		t.Error("async optimum should exceed one worker")
	}
	if res.Metrics["staleness at 64 workers"] <= 0 {
		t.Error("staleness should be positive at 64 workers")
	}
	checkRendered(t, res)
}

func TestAblationConvergence(t *testing.T) {
	res, err := Run("abl-conv", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	lin := res.Metrics["linear scaling rule peak"]
	sqrt := res.Metrics["sqrt scaling rule peak"]
	if lin <= sqrt {
		t.Errorf("linear-rule peak %v should beat sqrt-rule peak %v", lin, sqrt)
	}
	checkRendered(t, res)
}

func TestAblationPartition(t *testing.T) {
	res, err := Run("abl-part", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	worst := res.Metrics["estimate/exact worst"]
	best := res.Metrics["estimate/exact best"]
	// The degree-sum estimator should track exact loads within tens of
	// percent.
	if best < 0.5 || worst > 2 {
		t.Errorf("estimator ratio band [%v, %v] too loose", best, worst)
	}
	checkRendered(t, res)
}

func TestStudySparkML(t *testing.T) {
	res, err := Run("study-sparkml", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The MLP row reproduces the Fig. 2 optimum.
	if res.Metrics["multilayer perceptron (W=12000000) optimum"] != 16 {
		t.Errorf("MLP optimum = %v, want 16 over [1,64]",
			res.Metrics["multilayer perceptron (W=12000000) optimum"])
	}
	// Compute-heavy k-means scales to the cap.
	if res.Metrics["k-means (k=100, d=1000) optimum"] < 49 {
		t.Errorf("k-means optimum = %v, want near the 64-worker cap",
			res.Metrics["k-means (k=100, d=1000) optimum"])
	}
	// Communication-dominated ALS does not scale on 1 GbE.
	if res.Metrics["ALS (rank=50) peak"] > 1.5 {
		t.Errorf("ALS peak = %v, want ≈ 1 (model ships more than it computes)",
			res.Metrics["ALS (rank=50) peak"])
	}
	checkRendered(t, res)
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment is covered per-experiment in short mode")
	}
	for _, id := range IDs() {
		if _, err := Run(id, QuickOptions()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// checkRendered asserts the textual rendering carries the key sections.
func checkRendered(t *testing.T, res Result) {
	t.Helper()
	out := res.Render()
	if !strings.Contains(out, res.ID) || !strings.Contains(out, res.Title) {
		t.Errorf("%s: render missing header:\n%s", res.ID, out)
	}
	if res.Table != nil && len(strings.Split(out, "\n")) < 5 {
		t.Errorf("%s: render suspiciously short", res.ID)
	}
	if len(res.PaperComparison) > 0 && !strings.Contains(out, "paper") {
		t.Errorf("%s: render missing paper comparison", res.ID)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var zero Options
	d := zero.withDefaults()
	if d.MonteCarloTrials <= 0 || d.SimIterations <= 0 || d.Seed == 0 {
		t.Errorf("withDefaults left zero fields: %+v", d)
	}
	// Fig4Vertices = 0 is meaningful (full graph) and must be preserved.
	if d.Fig4Vertices != 0 {
		t.Errorf("withDefaults overrode Fig4Vertices=0 (full graph): %+v", d)
	}
}
