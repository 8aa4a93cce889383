package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodScenario = `{"name": "ok", "workload": {"flops_per_example": 1e6, "batch_size": 10, "parameters": 100},
  "hardware": {"preset": "xeon-e3-1240"}, "protocol": {"kind": "tree", "bandwidth_bits_per_sec": 1e9},
  "convergence": {"rule": "sqrt", "base_iterations": 100}, "max_workers": 8}`

const brokenScenario = `{"name": "broken", "protocol": {"kind": "warp"}}`

func writeSuite(t *testing.T, scenarios ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "suite.json")
	doc := `{"name": "exit-code suite", "scenarios": [` + strings.Join(scenarios, ",") + `]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes is the regression test for the historical bug: partial
// failures exited 0 and scripts consumed rankings with silently missing
// plans.
func TestExitCodes(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name      string
		scenarios []string
		args      []string
		want      int
	}{
		{"all ok", []string{goodScenario}, nil, 0},
		{"partial failure", []string{goodScenario, brokenScenario}, nil, 1},
		{"partial failure keep-going", []string{goodScenario, brokenScenario}, []string{"-keep-going"}, 0},
		{"all failed", []string{brokenScenario}, nil, 1},
		{"all failed keep-going", []string{brokenScenario}, []string{"-keep-going"}, 1},
		{"negative max-cost", []string{goodScenario}, []string{"-max-cost", "-5"}, 1},
		{"negative max-time", []string{goodScenario}, []string{"-max-time", "-1h"}, 1},
		{"unknown objective", []string{goodScenario}, []string{"-objective", "fastest"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			suite := writeSuite(t, tc.scenarios...)
			var stdout, stderr bytes.Buffer
			args := append([]string{"-suite", suite}, tc.args...)
			if got := run(ctx, args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, stdout.String(), stderr.String())
			}
			if len(tc.scenarios) > 1 && !strings.Contains(stdout.String(), "broken") {
				t.Fatalf("failed scenario missing from output:\n%s", stdout.String())
			}
		})
	}
}

// TestInterruptFlushesPartialStats: a cancelled planning pass must still
// render what it has, flush -stats, and exit 130.
func TestInterruptFlushesPartialStats(t *testing.T) {
	suite := writeSuite(t, goodScenario)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	got := run(ctx, []string{"-suite", suite, "-stats"}, &stdout, &stderr)
	if got != 130 {
		t.Fatalf("exit code %d, want 130\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stats:") {
		t.Fatalf("-stats not flushed on interrupt:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("no interruption notice:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "cancelled") {
		t.Fatalf("cancelled cell missing from output:\n%s", stdout.String())
	}
}

func TestBadFlagsExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run(context.Background(), []string{"-definitely-not-a-flag"}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit code %d, want 2", got)
	}
}
