package planner

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dmlscale/internal/scenario"
	"dmlscale/internal/units"
)

// sameExport fails t unless the streaming exports write exactly what
// scenario.WritePlansJSON and WritePlansCSV write for the report's Export,
// errors included.
func sameExport(t *testing.T, r Report) {
	t.Helper()
	var want, got bytes.Buffer
	wantErr := scenario.WritePlansJSON(&want, r.Export())
	gotErr := r.WriteJSON(&got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON: %d bytes, error %v; WritePlansJSON of Export: %d bytes, error %v",
			got.Len(), gotErr, want.Len(), wantErr)
	}
	want.Reset()
	got.Reset()
	exported := r.Export().Plans
	wantErr = scenario.WritePlansCSV(&want, len(exported), func(i int) scenario.PlanRecord { return exported[i] })
	gotErr = r.WriteCSV(&got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV: %q, error %v; WritePlansCSV of Export: %q, error %v", got.String(), gotErr, want.String(), wantErr)
	}
}

// TestWriteJSONMatchesExport: the streaming export reuses one record for
// every plan, so a plan must not see the arrays or fields of the one
// before it. The reports hold evaluated, fallback, failed, pruned, refined
// and over-budget plans, with curves of different lengths next to each
// other; a NaN must fail both writers before their first byte.
func TestWriteJSONMatchesExport(t *testing.T) {
	ctx := context.Background()
	suite := planTestSuite()
	suite.Scenarios = append(suite.Scenarios, weakScenario("short curve", tree(1e9),
		&scenario.ConvergenceSpec{Rule: "sqrt", BaseIterations: 10000}, 5))
	exhaustive, _, err := PlanSuiteCtx(ctx, suite, ObjectivePareto, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameExport(t, exhaustive)

	grid, err := scenario.DecodeSuite(strings.NewReader(`{
	  "name": "export grid",
	  "sweep": {
	    "base": {
	      "name": "conv",
	      "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6, "precision_bits": 32},
	      "hardware": {"preset": "nvidia-k40"},
	      "protocol": {"kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9},
	      "convergence": {"rule": "diminishing", "base_iterations": 50000, "critical_batch_growth": 32},
	      "max_workers": 32
	    },
	    "bandwidths_bits_per_sec": [1e9, 10e9, 40e9],
	    "protocols": ["two-stage-tree", "ring"],
	    "max_workers": [8, 32, 64]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, st, err := PlanSuiteCtx(ctx, grid, ObjectiveTTA, 0, Options{Prune: true, RefineRounds: 1, MaxTimeSeconds: 1.2e4})
	if err != nil {
		t.Fatal(err)
	}
	var infeasible int
	for _, p := range adaptive.Plans {
		if p.Infeasible {
			infeasible++
		}
	}
	if st.Pruned == 0 || st.Refined == 0 || infeasible == 0 {
		t.Fatalf("fixture has %d pruned, %d refined and %d over-budget plans; it needs each", st.Pruned, st.Refined, infeasible)
	}
	sameExport(t, adaptive)

	spoiled := exhaustive
	spoiled.Plans = append([]Plan(nil), exhaustive.Plans...)
	last := &spoiled.Plans[len(spoiled.Plans)-1]
	last.Curve = append([]Point(nil), exhaustive.Plans[0].Curve...)
	last.Curve[3].Cost = math.NaN()
	last.Err = nil
	sameExport(t, spoiled)
	if err := spoiled.WriteJSON(io.Discard); err == nil {
		t.Fatal("a NaN cost exported without error")
	}
}

// allocReport is a report of n evaluated convergence-aware plans with
// 128-point curves.
func allocReport(n int) Report {
	r := Report{Suite: "alloc fixture", Objective: ObjectivePareto, Plans: make([]Plan, n)}
	for i := range r.Plans {
		p := Plan{
			Scenario:         scenario.Scenario{Name: fmt.Sprintf("cell %d", i)},
			Family:           "gd-weak",
			ConvergenceAware: true,
			Rule:             "diminishing",
			CostRate:         0.9,
			Pareto:           i%2 == 0,
			Rank:             i + 1,
		}
		for k := range 128 {
			p.Curve = append(p.Curve, Point{
				Workers:    k + 1,
				Iterations: 1e5 * float64(k+1) / 3,
				Time:       units.Seconds(1e3 / float64(k+1)),
				Cost:       1e-7 * float64(k+1) * float64(i+1),
			})
		}
		p.Optimal = p.Curve[63]
		r.Plans[i] = p
	}
	return r
}

// TestWriteJSONAllocs pins the streaming export's allocations: the writer's
// buffer and float memo, and the one record's four curve arrays, grown
// once for the first plan, with or without -race. 10 and 1,000 plans cost
// the same, so no plan copies its curve into arrays of its own.
func TestWriteJSONAllocs(t *testing.T) {
	const pin = 6
	for _, n := range []int{10, 1000} {
		r := allocReport(n)
		allocs := testing.AllocsPerRun(3, func() {
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != pin {
			t.Errorf("%d plans: %.0f allocations, pinned at %d", n, allocs, pin)
		}
	}
}
