package main

import (
	"testing"

	"dmlscale/internal/cli/clitest"
)

// TestGoldenOutputs pins the exported bytes of every example suite, plus an
// adaptive, refined plan.
func TestGoldenOutputs(t *testing.T) {
	clitest.Golden(t, run, "testdata/golden.sha256", "plan-tta.json -adaptive -refine 1 -format json")
}
