// Package results is the benchmark's record format: one Run per workload
// phase, with its raw samples and the machine it ran on, appended to a
// results file that benchcmp reads back.
package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"
)

// Metric is one reported number with the samples behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N counts the samples Value summarizes; Q1 and Q3 are their quartiles.
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// Oracle is one correctness check and its outcome.
type Oracle struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Provenance says which code ran on which machine, so two runs that differ
// can be told apart as a code change or a machine change.
type Provenance struct {
	// Commit is the checkout's git commit, or "unknown" outside a git
	// repository; SourceSHA256 hashes the Go sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Kernel       string `json:"kernel"`
}

// Run is one workload phase of one benchmark invocation.
type Run struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Traced   bool      `json:"traced"`
	Smoke    bool      `json:"smoke,omitempty"`
	Started  time.Time `json:"started"`

	Provenance Provenance `json:"provenance"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Oracles   []Oracle          `json:"oracles"`
	Metrics   map[string]Metric `json:"metrics"`
}

// File is a results file: every run appended to it, oldest first.
type File struct {
	Runs []Run `json:"runs"`
}

// ProbeOutput is what one dmlsprobe measurement prints.
type ProbeOutput struct {
	WallMs      float64           `json:"wall_ms,omitempty"`
	Digests     []string          `json:"digests,omitempty"`
	LatenciesMs []float64         `json:"latencies_ms,omitempty"`
	Metrics     map[string]Metric `json:"metrics,omitempty"`
}

// Spec is what the tools read from BENCHMARK.json: the metrics the result
// line carries, with their units and regression bounds.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one BENCHMARK.json metric.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("results: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return Spec{}, fmt.Errorf("results: %s: %w", path, err)
	}
	return s, nil
}

// Load reads a results file; a missing file is an empty one.
func Load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return File{}, nil
	}
	if err != nil {
		return File{}, fmt.Errorf("results: %w", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return File{}, fmt.Errorf("results: %s: %w", path, err)
	}
	return f, nil
}

// Append adds runs to the results file at path, creating it if needed.
func Append(path string, runs ...Run) error {
	f, err := Load(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("results: encode: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}
