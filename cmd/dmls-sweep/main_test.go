package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

func TestExampleSuiteEvaluates(t *testing.T) {
	suite := exampleSuite()
	cs, err := suite.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 8 {
		t.Fatalf("example suite expands to %d scenarios, want 8", cs.Len())
	}
	results, _, err := scenario.EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v", res.Scenario.Name, res.Err)
		}
	}
	table := summaryTable(results)
	if !strings.Contains(table.String(), "ok") {
		t.Error("summary table missing ok rows")
	}
	if _, ok := overlayPlot(results); !ok {
		t.Error("overlay plot failed for healthy results")
	}
}

func TestStatsReport(t *testing.T) {
	results, st, err := scenario.EvaluateSuiteStatsCtx(context.Background(), exampleSuite(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scenarios != len(results) || st.Evaluated+st.Failed != st.Scenarios {
		t.Errorf("inconsistent stats %+v for %d results", st, len(results))
	}
	rendered := statsReport(st, registry.SnapshotCaches(), time.Millisecond)
	for _, want := range []string{"evaluated", "failed", "hit ratio", "kernel cache", "degree cache"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("stats report missing %q:\n%s", want, rendered)
		}
	}
	// Only plans prune or refine, and no cell is served from another's curve.
	for _, gone := range []string{"deduped", "pruned", "refined"} {
		if strings.Contains(rendered, gone) {
			t.Errorf("stats report still counts %q:\n%s", gone, rendered)
		}
	}
}

func TestSummaryTableReportsErrors(t *testing.T) {
	bad := scenario.Fig2()
	bad.Name = "bad"
	bad.Hardware = scenario.HardwareSpec{Preset: "abacus"}
	results, _, err := scenario.EvaluateSuiteStatsCtx(context.Background(), scenario.Suite{
		Name:      "mixed",
		Scenarios: []scenario.Scenario{scenario.Fig2(), bad},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rendered := summaryTable(results).String()
	if !strings.Contains(rendered, "abacus") {
		t.Errorf("error row missing from table:\n%s", rendered)
	}
	if _, ok := overlayPlot(results); !ok {
		t.Error("overlay plot should still draw the healthy curve")
	}
	if _, ok := overlayPlot(results[1:]); ok {
		t.Error("overlay plot drew with zero healthy curves")
	}
}
