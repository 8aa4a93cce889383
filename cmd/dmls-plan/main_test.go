package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

func TestExampleSuitePlans(t *testing.T) {
	suite := exampleSuite()
	cs, err := suite.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 6 {
		t.Fatalf("example suite expands to %d scenarios, want 6", cs.Len())
	}
	report, _, err := planner.PlanSuiteCtx(context.Background(), suite, "", 0, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Objective != planner.ObjectivePareto {
		t.Errorf("objective = %q, want the suite's pareto", report.Objective)
	}
	for _, p := range report.Plans {
		if p.Err != nil {
			t.Errorf("%s: %v", p.Scenario.Name, p.Err)
			continue
		}
		if !p.ConvergenceAware || p.Optimal.Workers < 1 || p.Optimal.Cost <= 0 {
			t.Errorf("%s: weak plan %+v", p.Scenario.Name, p.Optimal)
		}
	}
	rendered := planTable(report).String()
	if !strings.Contains(rendered, "ok") || !strings.Contains(rendered, "*") {
		t.Errorf("table missing ok rows or frontier markers:\n%s", rendered)
	}
}

func TestStatsReport(t *testing.T) {
	st := scenario.EvalStats{Scenarios: 6, Evaluated: 3, Pruned: 2, Failed: 1, Refined: 4, RefineRounds: 2}
	rendered := statsReport(st, registry.SnapshotCaches(), 3*time.Millisecond)
	for _, want := range []string{"6 cells planned", "3 evaluated", "2 pruned", "1 failed",
		"refinement added 4 cells over 2 rounds", "hit ratio", "kernel cache", "degree cache"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("stats report missing %q:\n%s", want, rendered)
		}
	}
}

func TestPlanTableReportsErrorsAndNotices(t *testing.T) {
	good := exampleSuite().Sweep.Base
	good.Name = "good"
	bad := good
	bad.Name = "bad"
	bad.Hardware = scenario.HardwareSpec{Preset: "abacus"}
	fallback := good
	fallback.Name = "fallback"
	fallback.Convergence = nil
	report, _, err := planner.PlanSuiteCtx(context.Background(), scenario.Suite{
		Name:      "mixed",
		Scenarios: []scenario.Scenario{good, bad, fallback},
	}, planner.ObjectiveTTA, 2, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := planTable(report).String()
	if !strings.Contains(rendered, "abacus") {
		t.Errorf("error row missing from table:\n%s", rendered)
	}
	if !strings.Contains(rendered, "per-iteration") {
		t.Errorf("fallback row missing its status:\n%s", rendered)
	}
	lines := notices(report)
	if len(lines) != 1 || !strings.Contains(lines[0], "no convergence block") {
		t.Errorf("notices = %v", lines)
	}
}
