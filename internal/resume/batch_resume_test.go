package resume

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dmlscale/internal/ckpt"
	"dmlscale/internal/memo"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// batchedSuite builds a sweep whose every cell prices a Monte-Carlo graph
// model: each scenario's worker axis is batch-filled by one kernel pass, so
// the journal interop under test is the batched fill path, not the
// single-estimate one.
func batchedSuite(t *testing.T, cells int) scenario.Suite {
	t.Helper()
	scs := make([]string, cells)
	for i := range scs {
		scs[i] = fmt.Sprintf(`{
		  "name": "bp dns %d",
		  "workload": {"family": "mrf", "graph": {"family": "dns", "vertices": 1200, "seed": %d}, "states": 2, "trials": 2},
		  "hardware": {"preset": "dl980-core"},
		  "protocol": {"kind": "shared-memory"},
		  "max_workers": 12
		}`, i, 9000+i)
	}
	doc := fmt.Sprintf(`{"name": "resume batched grid", "scenarios": [%s]}`, strings.Join(scs, ","))
	s, err := scenario.DecodeSuite(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("decode suite: %v", err)
	}
	return s
}

// TestKillMidBatchedSweepResume is the batched-kernel crash-safety test: a
// sweep whose cells batch-fill their whole worker axis in one kernel pass is
// killed mid-grid, and the journal must hold ONE kernel record per estimate
// key — never one per batch — so a resume replays every paid-for estimate
// through SeedEstimate, finds the batch fully warm, and merges to output
// byte-identical to an uninterrupted run.
func TestKillMidBatchedSweepResume(t *testing.T) {
	const cells = 6
	suite := batchedSuite(t, cells)
	path := filepath.Join(t.TempDir(), "batched.ckpt")

	// Ground truth: the uninterrupted run.
	registry.ResetCaches()
	defer registry.ResetCaches()
	want, wantStats, err := scenario.EvaluateSuiteStatsCtx(context.Background(), suite, 1)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if wantStats.Scenarios != cells {
		t.Fatalf("suite expands to %d cells, want %d", wantStats.Scenarios, cells)
	}
	var wantJSON bytes.Buffer
	if err := scenario.WriteResultsJSON(&wantJSON, suite.Name, want); err != nil {
		t.Fatal(err)
	}

	// First run: cold caches, checkpointing, killed after a third of the
	// grid. Parallelism 1 keeps the kill point between whole cells.
	registry.ResetCaches()
	r1, err := Open(path, suite.Name, cells, false)
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &killingCheckpoint{inner: r1, cancel: cancel, limit: cells / 3}
	_, _, err = scenario.EvaluateSuiteCheckpointCtx(ctx, suite, 1, killer)
	if err == nil {
		t.Fatal("killed run reported no error; the cancel never fired")
	}
	if err := r1.Close(); err != nil {
		t.Fatalf("Close after kill: %v", err)
	}

	// The raw journal must hold one kernel record per estimate key — each
	// with full coordinates and a single worker count — and, per graph, a
	// record for every point of the batch-filled worker axis. A journal that
	// recorded whole batches (or recorded keys twice) breaks this. Each
	// record's fingerprint must be memo.HashInt32s of one suite graph's
	// degrees: a carried fingerprint that drifted from that content hash
	// would orphan every existing journal on resume.
	j, _, entries, err := ckpt.Open(path)
	if err != nil {
		t.Fatalf("reopen raw journal: %v", err)
	}
	j.Close()
	type fingerprint struct{ fnv, mix uint64 }
	content := make(map[fingerprint]bool)
	for i := 0; i < cells; i++ {
		degrees, err := registry.GraphDegreesCtx(context.Background(), registry.GraphSpec{Family: "dns", Vertices: 1200, Seed: int64(9000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		fnv, mix := memo.HashInt32s(degrees)
		content[fingerprint{fnv, mix}] = true
	}
	type kkey struct {
		fnv, mix uint64
		workers  int
	}
	perKey := make(map[kkey]int)
	workersPerGraph := make(map[uint64]map[int]bool)
	kernels := 0
	for _, e := range entries {
		if e.Kind != ckpt.KindKernel {
			continue
		}
		var kr ckpt.KernelRecord
		if err := json.Unmarshal(e.Data, &kr); err != nil {
			t.Fatalf("bad kernel record: %v", err)
		}
		if kr.Workers < 1 || kr.Vertices != 1200 || kr.Trials != 2 {
			t.Fatalf("kernel record missing coordinates: %+v", kr)
		}
		if !content[fingerprint{kr.Fingerprint, kr.Mix}] {
			t.Errorf("kernel record %+v: fingerprint is not HashInt32s of any suite graph's degrees", kr)
		}
		kernels++
		perKey[kkey{kr.Fingerprint, kr.Mix, kr.Workers}]++
		if workersPerGraph[kr.Fingerprint] == nil {
			workersPerGraph[kr.Fingerprint] = make(map[int]bool)
		}
		workersPerGraph[kr.Fingerprint][kr.Workers] = true
	}
	if kernels == 0 {
		t.Fatal("killed run journaled no kernel estimates")
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("estimate key %+v journaled %d times, want exactly once", k, n)
		}
	}
	for fnv, ws := range workersPerGraph {
		if len(ws) < 2 {
			t.Errorf("graph %x journaled only %d worker counts; a batch fill must journal every key it filled", fnv, len(ws))
		}
	}

	// Resume against cold caches: every journaled estimate must seed the
	// cache, finished cells replay, and the merge must be byte-identical.
	registry.ResetCaches()
	r2, err := Open(path, suite.Name, cells, true)
	if err != nil {
		t.Fatalf("Open resume: %v", err)
	}
	if !r2.Resumed || r2.CellsReplayed == 0 {
		t.Fatalf("resume replayed nothing: resumed=%v cells=%d", r2.Resumed, r2.CellsReplayed)
	}
	if r2.KernelReplayed != kernels {
		t.Errorf("KernelReplayed = %d, journal held %d kernel records", r2.KernelReplayed, kernels)
	}
	got, stats, err := scenario.EvaluateSuiteCheckpointCtx(context.Background(), suite, 1, r2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	if stats.ResumedCells != r2.CellsReplayed {
		t.Errorf("ResumedCells = %d, journal held %d", stats.ResumedCells, r2.CellsReplayed)
	}

	var gotJSON bytes.Buffer
	if err := scenario.WriteResultsJSON(&gotJSON, suite.Name, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatal("resumed batched sweep differs from uninterrupted run")
	}
}
