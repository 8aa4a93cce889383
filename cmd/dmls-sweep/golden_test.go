package main

import (
	"testing"

	"dmlscale/internal/cli/clitest"
)

// TestGoldenOutputs pins the exported bytes of every example suite.
func TestGoldenOutputs(t *testing.T) {
	clitest.Golden(t, run, "testdata/golden.sha256")
}
