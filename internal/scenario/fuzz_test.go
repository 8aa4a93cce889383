package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecode checks the scenario decoder never panics and that anything it
// accepts builds a working model.
func FuzzDecode(f *testing.F) {
	var fig2 strings.Builder
	if err := Fig2().Encode(&fig2); err != nil {
		f.Fatal(err)
	}
	var fig3 strings.Builder
	if err := Fig3().Encode(&fig3); err != nil {
		f.Fatal(err)
	}
	var fig4 strings.Builder
	if err := Fig4().Encode(&fig4); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		fig2.String(),
		fig3.String(),
		fig4.String(),
		`{}`,
		`{"name":"x"}`,
		`not json`,
		`{"name":"x","workload":{"flops_per_example":-1}}`,
		`{"name":"x","workload":{"family":"mrf","graph":{"family":"grid","vertices":64}},
		  "hardware":{"preset":"dl980-core"},"protocol":{"kind":"shared-memory"}}`,
		`{"name":"x","workload":{"family":"async-gd","flops_per_example":1e6,"batch_size":10,"parameters":100},
		  "hardware":{"peak_flops":1e9},"protocol":{"kind":"tree","bandwidth_bits_per_sec":1e9}}`,
		`{"name":"x","workload":{"flops_per_example":1,"batch_size":1,"parameters":1},
		  "hardware":{"preset":"xeon-e3-1240"},
		  "protocol":{"kind":"sum","of":[{"kind":"tree","bandwidth_bits_per_sec":1e9}]}}`,
		`{"name":"x","workload":{"family":"gd-weak","flops_per_example":1e9,"batch_size":128,"parameters":1e6},
		  "hardware":{"preset":"nvidia-k40","cost_per_hour":1.5},
		  "protocol":{"kind":"ring","network":"ten-gigabit-ethernet"},
		  "convergence":{"rule":"diminishing","base_iterations":1000,"critical_batch_growth":8}}`,
		`{"name":"x","workload":{"flops_per_example":1e6,"batch_size":10,"parameters":100},
		  "hardware":{"preset":"xeon-e3-1240"},
		  "protocol":{"kind":"tree","network":"gigabit-ethernet","bandwidth_bits_per_sec":1e9}}`,
		`{"name":"x","workload":{"flops_per_example":1e6,"batch_size":10,"parameters":100},
		  "hardware":{"preset":"xeon-e3-1240"},"protocol":{"kind":"tree","bandwidth_bits_per_sec":1e9},
		  "convergence":{"rule":"warp","base_iterations":100}}`,
	}
	// Family scenarios exercise every registry path.
	for _, sc := range familyScenarios() {
		var sb strings.Builder
		if err := sc.Encode(&sb); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, sb.String())
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		// Keep fuzz iterations fast: Decode validates by building the
		// model, so peek at the raw JSON first and skip inputs that are
		// valid but expensive (big graphs, wide curves, many trials).
		var probe Scenario
		if err := json.Unmarshal([]byte(raw), &probe); err == nil {
			if probe.Workload.Graph != nil && probe.Workload.Graph.Vertices > 100000 {
				return
			}
			if probe.MaxN() > 256 || probe.Workload.Trials > 100 {
				return
			}
		}
		s, err := Decode(strings.NewReader(raw))
		if err != nil {
			return
		}
		model, err := s.Model()
		if err != nil {
			t.Fatalf("accepted scenario does not build a model: %v", err)
		}
		if got := model.Speedup(1); got != got || got < 0.99 || got > 1.01 {
			t.Fatalf("s(1) = %v for accepted scenario", got)
		}
		if model.Time(s.MaxN()) < 0 {
			t.Fatalf("negative time for accepted scenario")
		}
	})
}

// FuzzDecodeSuite checks the suite decoder never panics and that anything
// it accepts expands within bounds and evaluates with per-scenario error
// isolation (no panics, no aborts).
func FuzzDecodeSuite(f *testing.F) {
	var single strings.Builder
	if err := Fig2().Encode(&single); err != nil {
		f.Fatal(err)
	}
	var suite strings.Builder
	if err := testSuite().Encode(&suite); err != nil {
		f.Fatal(err)
	}
	sweepOnly := `{
		"name": "sweep",
		"sweep": {
			"base": ` + strings.TrimSpace(single.String()) + `,
			"bandwidths_bits_per_sec": [1e9, 1e10],
			"protocols": ["spark", "ring", "linear"],
			"precisions_bits": [32, 64],
			"max_workers": [8, 16]
		}
	}`
	for _, seed := range []string{
		single.String(),
		suite.String(),
		sweepOnly,
		`{}`,
		`not json`,
		`{"name":"x","scenarios":[]}`,
		`{"name":"x","scenarios":[{"name":"broken","protocol":{"kind":"warp"}}]}`,
		`{"name":"planned","objective":"pareto","scenarios":[` + strings.TrimSpace(single.String()) + `]}`,
		`{"name":"x","objective":"fastest","scenarios":[` + strings.TrimSpace(single.String()) + `]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := DecodeSuite(strings.NewReader(raw))
		if err != nil {
			return
		}
		cs, err := s.Cells()
		if err != nil {
			return
		}
		if cs.Len() > MaxStreamCells {
			t.Fatalf("expansion escaped the cap: %d scenarios", cs.Len())
		}
		// Keep fuzz iterations fast: skip evaluation of mutated suites
		// that request big grids, big graphs or wide curves (valid, just
		// slow).
		if cs.Len() > 4096 {
			return
		}
		scenarios, err := expand(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			if sc.Workload.Graph != nil && sc.Workload.Graph.Vertices > 100000 {
				return
			}
			if sc.MaxN() > 256 || sc.Workload.Trials > 100 {
				return
			}
		}
		// Accepted suites must evaluate without panicking; individual
		// scenarios may fail, isolated in their Result.
		results, _, err := EvaluateSuiteStatsCtx(context.Background(), Suite{Name: "fuzz", Scenarios: scenarios}, 4)
		if err != nil && len(scenarios) > 0 {
			// Expansion succeeded above, so only duplicate names can
			// legitimately stop evaluation here.
			if !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("evaluation aborted: %v", err)
			}
			return
		}
		if len(results) != len(scenarios) {
			t.Fatalf("%d results for %d scenarios", len(results), len(scenarios))
		}
	})
}
