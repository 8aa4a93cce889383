package probe

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dmlscale/bench/internal/workload"
	"dmlscale/internal/core"
)

func TestFoldSelfTimesOnSyntheticTree(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "pass", Start: at(0), End: at(100)},
		{Name: "request", Start: at(1), End: at(99), Verb: "sweep"},
		{Name: "decode", Start: at(2), End: at(10)},
		{Name: "evaluate", Start: at(10), End: at(90)},
		{Name: "suite", Start: at(11), End: at(89)},
		{Name: "cell", Start: at(12), End: at(50)},
		{Name: "build", Start: at(12), End: at(20)},
		{Name: "sample", Start: at(20), End: at(50)},
		// Recorded under its cell, but running inside the sample span.
		{Name: "kernel", Start: at(25), End: at(45)},
		{Name: "mc-shard", Start: at(26), End: at(44)},
		{Name: "cell", Start: at(50), End: at(88)},
		{Name: "encode", Start: at(90), End: at(98)},
	}
	// Shuffle the arrival order: spans reach the recorder as they end.
	shuffled := slices.Clone(spans)
	slices.Reverse(shuffled)
	self, parent := Fold(shuffled)
	want := map[string][]int{
		"pass": {2}, "request": {2}, "decode": {8}, "evaluate": {2}, "suite": {2},
		"cell": {38, 0}, "build": {8}, "sample": {10}, "kernel": {2}, "mc-shard": {18}, "encode": {8},
	}
	var total time.Duration
	for i, s := range shuffled {
		ms := int(self[i] / time.Millisecond)
		if !slices.Contains(want[s.Name], ms) {
			t.Errorf("%s self time %dms, want one of %v", s.Name, ms, want[s.Name])
		}
		total += self[i]
	}
	if total != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
	for i, s := range shuffled {
		if s.Name == "kernel" && shuffled[parent[i]].Name != "sample" {
			t.Errorf("kernel nests under %s, want sample", shuffled[parent[i]].Name)
		}
		if s.Name == "pass" && parent[i] != -1 {
			t.Error("the root has a container")
		}
	}
}

func TestFoldOverlappingChildrenCountOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	self, _ := Fold([]Span{
		{Name: "suite", Start: at(0), End: at(10)},
		{Name: "cell", Start: at(1), End: at(5)},
		{Name: "cell", Start: at(3), End: at(8)},
	})
	if self[0] != 3*time.Millisecond {
		t.Errorf("parent self time %v, want 3ms: concurrent children cover [1,8) once", self[0])
	}
}

func TestTracedPassSharesAddUp(t *testing.T) {
	core.SetParallelism(1)
	defer core.SetParallelism(0)
	for _, name := range []string{workload.PlanGrid, workload.SweepCommGrid} {
		in, err := workload.Generate(name, 1, workload.Smoke)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Pass(context.Background(), in, true)
		if err != nil {
			t.Fatal(err)
		}
		untraced, err := Pass(context.Background(), in, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(traced.Digests, untraced.Digests) {
			t.Errorf("%s: tracing changed the answers", name)
		}
		sum := 0.0
		for metric, m := range traced.Metrics {
			if strings.HasSuffix(metric, "_self_pct") || metric == "trace.residual_pct" {
				sum += m.Value
			}
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: layer shares and residual sum to %.2f%%, want 100%%", name, sum)
		}
		if d := traced.Metrics["trace.dropped"].Value; d != 0 {
			t.Errorf("%s: %v spans dropped", name, d)
		}
	}
}
