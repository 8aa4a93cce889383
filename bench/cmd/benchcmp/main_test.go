package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmlscale/bench/internal/results"
)

// around returns n values alternating ±spread around center.
func around(center, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + spread*float64(i%3-1))
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"clear gain in every pair", around(100, 0.01, 10), around(80, 0.01, 10), "lower", 0.1, "better"},
		{"gain on a higher-is-better metric", around(100, 0.01, 10), around(120, 0.01, 10), "higher", 0.1, "better"},
		{"gain with too few pairs is only same", around(100, 0.01, 9), around(95, 0.01, 9), "lower", 0.1, "same"},
		{"noise within the bound", around(100, 0.01, 10), around(101, 0.01, 10), "lower", 0.1, "same"},
		{"regression past the bound", around(100, 0.01, 10), around(120, 0.01, 10), "lower", 0.1, "worse"},
		{"regression on a higher-is-better metric", around(100, 0.01, 10), around(85, 0.01, 10), "higher", 0.1, "worse"},
		{"spread wider than the bound", around(100, 0.3, 10), around(105, 0.3, 10), "lower", 0.1, "unresolved"},
		{"wide spread but every change run better", around(100, 0.3, 4), around(10, 0.3, 4), "lower", 0.1, "better"},
		{"ungated metric without a gain", around(100, 0.01, 10), around(120, 0.01, 10), "lower", 0, "-"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(tc.parent, tc.change, tc.better, tc.bound); got.verdict != tc.want {
				t.Errorf("verdict %q, want %q (%+v)", got.verdict, tc.want, got)
			}
		})
	}
}

func TestCompareGainNeedsGapBeyondParentIQR(t *testing.T) {
	// Nine of ten pairs won, but by less than the parent's own spread.
	parent := []float64{100, 90, 110, 100, 90, 110, 100, 90, 110, 100}
	change := []float64{99, 89, 109, 99, 89, 109, 99, 89, 109, 101}
	if got := compare(parent, change, "lower", 0.25); got.verdict == "better" {
		t.Errorf("verdict better on a gap inside the parent's IQR: %+v", got)
	}
}

func TestRunReportsWorseWithExitStatus(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals []float64) string {
		var f results.File
		for i, v := range vals {
			f.Runs = append(f.Runs, results.Run{Workload: "plan-grid", Seed: int64(i),
				Metrics: map[string]results.Metric{"wall_s": {Value: v, Unit: "s"}}})
		}
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, change := write("parent.json", around(1, 0.01, 10)), write("change.json", around(1.3, 0.01, 10))
	var out, errOut bytes.Buffer
	if code := run([]string{"-benchmark", specPath, parent, change}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "plan-grid") || !strings.Contains(out.String(), "worse") {
		t.Errorf("report lacks the workload's worse verdict:\n%s", out.String())
	}
}
