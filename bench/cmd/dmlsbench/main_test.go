package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/workload"
)

// TestSmoke runs every workload in miniature through both phases, from the
// build to the results file, and checks that every run is correct and
// measured every metric BENCHMARK.json names for its phase.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	t.Chdir("../../..")
	dir := t.TempDir()
	resultsPath := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run(context.Background(), []string{"-smoke", "-seconds", "1", "-build", dir, "-results", resultsPath}, &stdout, &stderr)
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	spec, err := results.LoadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.Load(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2*len(workload.Names) {
		t.Fatalf("%d runs recorded, want an end-to-end and a traced run per workload", len(f.Runs))
	}
	for _, r := range f.Runs {
		want := spec.EndToEnd
		if r.Traced {
			want = spec.PerLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v failed=%d of %d; oracles %+v", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted, r.Oracles)
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s = %+v, want one in %s", r.Workload, r.Traced, m.Name, got, m.Unit)
			}
		}
		if r.Provenance.GoVersion == "" || r.Provenance.NumCPU == 0 || r.Provenance.SourceSHA256 == "" {
			t.Errorf("%s: provenance incomplete: %+v", r.Workload, r.Provenance)
		}
	}
	for _, name := range workload.Names {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("table has no %s rows", name)
		}
	}
}

// TestResultLine checks the one-workload, one-phase form: the last line is
// the result object, with exactly the end-to-end metrics.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	t.Chdir("../../..")
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload.SweepCommGrid, "--seed", "4", "--seconds", "1", "--trace", "0", "-smoke", "-build", dir}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	spec, err := results.LoadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for name := range line.Metrics {
		got = append(got, name)
	}
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 || !slices.Equal(got, want) {
		t.Errorf("result line %s; want correct, no failures and metrics %v", lines[len(lines)-1], want)
	}
}
