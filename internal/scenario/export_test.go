package scenario

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// exportSuite is a small mixed suite: one healthy sweep plus one scenario
// that fails at evaluation.
func exportSuite() Suite {
	bad := Fig2()
	bad.Name = "broken"
	bad.Hardware = HardwareSpec{Preset: "abacus"}
	return Suite{
		Name:      "export fixture",
		Scenarios: []Scenario{Fig2(), bad},
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	results, _, err := EvaluateSuiteStatsCtx(context.Background(), exportSuite(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, "export fixture", results); err != nil {
		t.Fatal(err)
	}
	var report SuiteReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("decoding exported JSON: %v", err)
	}
	if report.Suite != "export fixture" {
		t.Errorf("suite name %q", report.Suite)
	}
	if len(report.Results) != len(results) {
		t.Fatalf("%d records for %d results", len(report.Results), len(results))
	}
	ok := report.Results[0]
	if ok.Scenario != results[0].Scenario.Name || ok.Error != "" {
		t.Errorf("healthy record mangled: %+v", ok)
	}
	if ok.Family != "gd-strong" {
		t.Errorf("family = %q, want gd-strong", ok.Family)
	}
	if len(ok.Workers) != len(results[0].Curve.Points) ||
		len(ok.Speedups) != len(ok.Workers) || len(ok.TimesSeconds) != len(ok.Workers) {
		t.Fatalf("curve columns misaligned: %+v", ok)
	}
	// The numbers round-trip exactly: the export is the curve, not a
	// rendering of it.
	for i, p := range results[0].Curve.Points {
		if ok.Workers[i] != p.N || ok.Speedups[i] != p.Speedup || ok.TimesSeconds[i] != float64(p.Time) {
			t.Fatalf("point %d: exported (%d, %v, %v), curve has %+v", i, ok.Workers[i], ok.TimesSeconds[i], ok.Speedups[i], p)
		}
	}
	if ok.OptimalWorkers != results[0].OptimalN || ok.PeakSpeedup != results[0].PeakSpeedup {
		t.Errorf("summary fields drifted: %+v", ok)
	}
	failed := report.Results[1]
	if failed.Error == "" || !strings.Contains(failed.Error, "abacus") {
		t.Errorf("failed record lost its error: %+v", failed)
	}
	if len(failed.Workers) != 0 {
		t.Errorf("failed record carries curve data: %+v", failed)
	}
}

func TestResultsCSVShape(t *testing.T) {
	results, _, err := EvaluateSuiteStatsCtx(context.Background(), exportSuite(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("exported CSV unparseable: %v", err)
	}
	wantRows := 1 + len(results[0].Curve.Points) + 1 // header + curve + error row
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	if rows[0][0] != "scenario" || rows[0][2] != "workers" || rows[0][7] != "error" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][0] != results[0].Scenario.Name || rows[1][2] != "1" {
		t.Errorf("first curve row = %v", rows[1])
	}
	last := rows[len(rows)-1]
	if last[0] != "broken" || last[2] != "" || !strings.Contains(last[7], "abacus") {
		t.Errorf("error row = %v", last)
	}
}

func TestPlansJSONRoundTripAndCSVShape(t *testing.T) {
	report := PlanReport{
		Suite:     "plan test",
		Objective: "pareto",
		Plans: []PlanRecord{
			{
				Rank: 1, Scenario: "fast", Family: "gd-weak", ConvergenceAware: true,
				Rule: "diminishing", OptimalWorkers: 16, IterationsToAccuracy: 3125,
				TimeSeconds: 42.5, CostRatePerNodeHour: 0.9, Cost: 0.17, Pareto: true,
				Workers: []int{1, 16}, TimesSeconds: []float64{100, 42.5},
				Iterations: []float64{50000, 3125}, Costs: []float64{0.025, 0.17},
			},
			{
				Rank: 2, Scenario: "fallback", Family: "mrf", ConvergenceAware: false,
				OptimalWorkers: 8, TimeSeconds: 1.5,
				Notice: "no convergence block: ranked by per-iteration time",
			},
			{Rank: 3, Scenario: "broken", Error: "unknown preset"},
		},
	}
	var buf bytes.Buffer
	if err := WritePlansJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	var got PlanReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Suite != report.Suite || got.Objective != report.Objective || len(got.Plans) != 3 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	if got.Plans[0].Rule != "diminishing" || !got.Plans[0].Pareto || got.Plans[0].Workers[1] != 16 {
		t.Errorf("plan record lost fields: %+v", got.Plans[0])
	}
	if got.Plans[2].Error == "" {
		t.Error("error record lost its error")
	}

	buf.Reset()
	if err := WritePlansCSV(&buf, report.Plans); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d CSV rows, want header + 3 plans", len(rows))
	}
	if rows[0][0] != "rank" || rows[0][len(rows[0])-1] != "error" {
		t.Errorf("header = %v", rows[0])
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Errorf("row %d has %d columns, header has %d", i+1, len(row), len(rows[0]))
		}
	}
	if rows[3][1] != "broken" || rows[3][len(rows[3])-1] != "unknown preset" {
		t.Errorf("error row = %v", rows[3])
	}
}
