package scenario

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dmlscale/internal/core"
	"dmlscale/internal/registry"
)

// testSuite returns a suite that expands to ≥ 8 scenarios: the family tour
// plus a bandwidth × protocol sweep of the Fig. 2 base.
func testSuite() Suite {
	return Suite{
		Name:      "test suite",
		Scenarios: familyScenarios(),
		Sweep: &Sweep{
			Base:                 Fig2(),
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
			Protocols:            []string{"spark", "ring"},
		},
	}
}

func TestSuiteExpansion(t *testing.T) {
	suite := testSuite()
	scenarios, err := expand(suite)
	if err != nil {
		t.Fatal(err)
	}
	want := len(familyScenarios()) + 4
	if len(scenarios) != want {
		t.Fatalf("expanded to %d scenarios, want %d", len(scenarios), want)
	}
	names := map[string]bool{}
	for _, sc := range scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate name %q", sc.Name)
		}
		names[sc.Name] = true
	}
	// The sweep override axes really changed the scenarios.
	bandwidths := map[float64]bool{}
	kinds := map[string]bool{}
	for _, sc := range scenarios[len(familyScenarios()):] {
		bandwidths[sc.Protocol.BandwidthBitsPerSec] = true
		kinds[sc.Protocol.Kind] = true
	}
	if len(bandwidths) != 2 || len(kinds) != 2 {
		t.Errorf("sweep axes collapsed: bandwidths %v kinds %v", bandwidths, kinds)
	}
}

// TestSweepBandwidthDoesNotAliasComposedBase: re-pricing a composed base
// protocol must not write through the shared Of slice — each grid point
// keeps its own bandwidth, and the base spec stays untouched.
func TestSweepBandwidthDoesNotAliasComposedBase(t *testing.T) {
	base := Fig2()
	base.Protocol = ProtocolSpec{
		Kind: "sum",
		Of: []ProtocolSpec{
			{Kind: "tree", BandwidthBitsPerSec: 1e9},
			{Kind: "sqrt-waves", BandwidthBitsPerSec: 1e9},
		},
	}
	sweep := Sweep{Base: base, BandwidthsBitsPerSec: []float64{1e9, 1e10}}
	scenarios, err := expandSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("expanded to %d scenarios", len(scenarios))
	}
	for i, want := range []float64{1e9, 1e10} {
		for j, inner := range scenarios[i].Protocol.Of {
			if inner.BandwidthBitsPerSec != want {
				t.Errorf("grid point %d inner %d: bandwidth %g, want %g",
					i, j, inner.BandwidthBitsPerSec, want)
			}
		}
	}
	for _, inner := range base.Protocol.Of {
		if inner.BandwidthBitsPerSec != 1e9 {
			t.Errorf("base spec mutated: inner bandwidth %g", inner.BandwidthBitsPerSec)
		}
	}
}

// TestSweepKeepsBaseParamsForMatchingKind: when the protocol axis names the
// base's own kind, the base's parameters (chunks, waves, latency) survive;
// a different kind starts from a fresh spec.
func TestSweepKeepsBaseParamsForMatchingKind(t *testing.T) {
	base := Fig2()
	base.Protocol = ProtocolSpec{Kind: "pipelined-tree", BandwidthBitsPerSec: 1e9, Chunks: 8}
	sweep := Sweep{Base: base, Protocols: []string{"pipelined-tree", "ring"}}
	scenarios, err := expandSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got := scenarios[0].Protocol; got.Kind != "pipelined-tree" || got.Chunks != 8 {
		t.Errorf("matching kind lost base params: %+v", got)
	}
	if got := scenarios[1].Protocol; got.Kind != "ring" || got.Chunks != 0 {
		t.Errorf("fresh kind carried foreign params: %+v", got)
	}
	if got := scenarios[1].Protocol.BandwidthBitsPerSec; got != 1e9 {
		t.Errorf("fresh kind lost bandwidth: %g", got)
	}
}

// TestSweepComposedBaseProtocolAxis: sweeping the protocol axis over a
// composite base pulls the bandwidth from the inner leaves, so the fresh
// grid points actually build.
func TestSweepComposedBaseProtocolAxis(t *testing.T) {
	base := Fig2()
	base.Protocol = ProtocolSpec{
		Kind: "sum",
		Of: []ProtocolSpec{
			{Kind: "tree", BandwidthBitsPerSec: 1e9},
			{Kind: "sqrt-waves", BandwidthBitsPerSec: 1e9},
		},
	}
	sweep := Sweep{Base: base, Protocols: []string{"ring"}}
	scenarios, err := expandSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got := scenarios[0].Protocol; got.Kind != "ring" || got.BandwidthBitsPerSec != 1e9 {
		t.Fatalf("swept spec = %+v, want ring at 1e9", got)
	}
	if _, err := scenarios[0].Model(); err != nil {
		t.Errorf("swept grid point does not build: %v", err)
	}
}

// TestSweepCapFiresBeforeMaterializing: an absurd grid errors without
// allocating the scenarios.
func TestSweepCapFiresBeforeMaterializing(t *testing.T) {
	axis := make([]float64, 100000)
	for i := range axis {
		axis[i] = float64(i + 1)
	}
	sweep := Sweep{
		Base:                 Fig2(),
		BandwidthsBitsPerSec: axis,
		PrecisionsBits:       axis,
		MaxWorkers:           []int{8, 16, 32},
	}
	// 100000 × 100000 × 3 grid points: must error fast, not allocate.
	if _, err := expandSweep(sweep); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

func TestSuiteMaxWorkersOverride(t *testing.T) {
	suite := testSuite()
	suite.MaxWorkers = 24
	scenarios, err := expand(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if sc.MaxN() != 24 {
			t.Errorf("%s: MaxN = %d, want 24", sc.Name, sc.MaxN())
		}
	}
}

// TestSuiteMaxWorkersConflictsWithSweptAxis: a suite-level bound over a
// swept worker axis is ambiguous and refused.
func TestSuiteMaxWorkersConflictsWithSweptAxis(t *testing.T) {
	suite := Suite{
		Name:       "conflict",
		MaxWorkers: 32,
		Sweep:      &Sweep{Base: Fig2(), MaxWorkers: []int{8, 16}},
	}
	if _, err := expand(suite); err == nil {
		t.Fatal("conflicting worker bounds accepted")
	}
	// Without the suite-level override the axis sweeps cleanly.
	suite.MaxWorkers = 0
	scenarios, err := expand(suite)
	if err != nil {
		t.Fatal(err)
	}
	if scenarios[0].MaxN() != 8 || scenarios[1].MaxN() != 16 {
		t.Errorf("swept bounds = %d, %d", scenarios[0].MaxN(), scenarios[1].MaxN())
	}
}

func TestSuiteRejectsBadShapes(t *testing.T) {
	if _, err := expand(Suite{}); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := expand(Suite{Name: "x"}); err == nil {
		t.Error("suite without scenarios accepted")
	}
	dup := Suite{Name: "x", Scenarios: []Scenario{Fig2(), Fig2()}}
	if _, err := expand(dup); err == nil {
		t.Error("duplicate names accepted")
	}
	big := Suite{Name: "x", Sweep: &Sweep{
		Base:                 Fig2(),
		BandwidthsBitsPerSec: make([]float64, 1000),
		PrecisionsBits:       make([]float64, 1000),
	}}
	for i := range big.Sweep.BandwidthsBitsPerSec {
		big.Sweep.BandwidthsBitsPerSec[i] = float64(i+1) * 1e9
	}
	for i := range big.Sweep.PrecisionsBits {
		big.Sweep.PrecisionsBits[i] = float64(i + 1)
	}
	if _, err := expand(big); err == nil {
		t.Error("1000000-scenario expansion accepted")
	}
}

// TestEvaluateSuiteConcurrently: ≥ 8 scenarios evaluate on the pool and the
// results match a serial evaluation.
func TestEvaluateSuiteConcurrently(t *testing.T) {
	suite := testSuite()
	parallel, _, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := EvaluateSuiteStatsCtx(context.Background(), suite, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) < 8 {
		t.Fatalf("suite evaluated %d scenarios, want ≥ 8", len(parallel))
	}
	for i := range parallel {
		if parallel[i].Err != nil {
			t.Errorf("%s: %v", parallel[i].Scenario.Name, parallel[i].Err)
			continue
		}
		if parallel[i].OptimalN < 1 || parallel[i].PeakSpeedup < 1 {
			t.Errorf("%s: peak %d/%v", parallel[i].Scenario.Name,
				parallel[i].OptimalN, parallel[i].PeakSpeedup)
		}
		// Monte-Carlo seeds are per-worker-count, so parallel evaluation
		// is deterministic and must equal serial evaluation exactly.
		for j, p := range parallel[i].Curve.Points {
			if p != serial[i].Curve.Points[j] {
				t.Errorf("%s point %d: parallel %+v vs serial %+v",
					parallel[i].Scenario.Name, j, p, serial[i].Curve.Points[j])
			}
		}
	}
}

// TestEvaluateSuiteIdenticalCellsAgree: cells that describe the same model
// under different labels — including through the legacy scaling alias —
// each evaluate to the same curve under their own name, wherever they
// appear in the suite, bit-identical to evaluating each on its own.
func TestEvaluateSuiteIdenticalCellsAgree(t *testing.T) {
	base := Fig2() // Scaling: "strong", Workload.Family empty
	a := base
	a.Name = "cell a"
	distinct := base
	distinct.Name = "distinct"
	distinct.Workload.BatchSize *= 2
	a2 := base
	a2.Name = "cell a again"
	alias := base
	alias.Name = "cell a via family"
	alias.Scaling = ""
	alias.Workload.Family = "gd-strong"
	suite := Suite{Name: "same model", Scenarios: []Scenario{a, distinct, a2, alias}}
	results, stats, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scenarios != 4 || stats.Evaluated != 4 || stats.CurvesDeduped != 0 {
		t.Errorf("stats = %+v, want 4 cells, 4 evaluated, 0 deduped", stats)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Scenario.Name, res.Err)
		}
		if res.Curve.Name != res.Scenario.Name {
			t.Errorf("curve labeled %q, want its own name %q", res.Curve.Name, res.Scenario.Name)
		}
	}
	for _, i := range []int{2, 3} {
		if !reflect.DeepEqual(results[i].Curve.Points, results[0].Curve.Points) {
			t.Errorf("%s: curve differs from the same model's %q", results[i].Scenario.Name, a.Name)
		}
		if results[i].OptimalN != results[0].OptimalN || results[i].PeakSpeedup != results[0].PeakSpeedup {
			t.Errorf("%s: summary differs from the same model's", results[i].Scenario.Name)
		}
	}
	// Bit-identity with a standalone evaluation of the duplicate.
	solo, _, err := EvaluateSuiteStatsCtx(context.Background(), Suite{Name: "solo", Scenarios: []Scenario{a2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo[0].Curve.Points, results[2].Curve.Points) {
		t.Error("curve differs from standalone evaluation")
	}
}

// TestEvaluateSuiteColdVsWarmBitIdentical: warming the process-wide caches
// must change the cost of a sweep, never its results — and the warm pass
// performs no new Monte-Carlo estimations.
func TestEvaluateSuiteColdVsWarmBitIdentical(t *testing.T) {
	registry.ResetCaches()
	defer registry.ResetCaches()
	base := Fig4()
	base.Workload.Graph = &GraphSpec{Family: "dns", Vertices: 3000, Seed: 42}
	base.MaxWorkers = 12
	suite := Suite{
		Name: "cold-warm",
		Sweep: &Sweep{
			Base:                 base,
			Protocols:            []string{"linear", "tree"},
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
		},
	}
	cold, coldStats, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterCold := registry.SnapshotCaches().Estimates.Misses
	if missesAfterCold != 12 {
		t.Errorf("cold pass performed %d estimations, want 12 (one per worker count)", missesAfterCold)
	}
	warm, warmStats, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := registry.SnapshotCaches().Estimates.Misses; got != missesAfterCold {
		t.Errorf("warm pass re-estimated: misses %d → %d", missesAfterCold, got)
	}
	if coldStats.Evaluated != 4 || warmStats.Evaluated != 4 {
		t.Errorf("grid cells not all evaluated: cold %+v, warm %+v", coldStats, warmStats)
	}
	for i := range cold {
		if cold[i].Err != nil || warm[i].Err != nil {
			t.Fatalf("cell %d failed: cold %v, warm %v", i, cold[i].Err, warm[i].Err)
		}
		if !reflect.DeepEqual(cold[i].Curve.Points, warm[i].Curve.Points) {
			t.Errorf("%s: warm curve differs from cold", cold[i].Scenario.Name)
		}
	}
}

// TestEvaluateSuiteAllocs pins the allocations of one warm one-cell suite
// on the sweep path: the fan-out, the cell's model build and curve sampling,
// and the stats fold. Parallelism is 1 because intra-curve sampling spawns
// goroutines whenever the budget has tokens. AllocsPerRun's warm-up call
// fills the caches, so the graph cell reads its degree sequence and
// Monte-Carlo estimates from them.
func TestEvaluateSuiteAllocs(t *testing.T) {
	core.SetParallelism(1)
	defer core.SetParallelism(0)
	for _, tc := range []struct {
		sc  Scenario
		pin float64
	}{{Fig2(), 32}, {Fig4(), 55}} {
		suite := Suite{Name: "allocs", Scenarios: []Scenario{tc.sc}}
		allocs := testing.AllocsPerRun(20, func() {
			results, _, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
			if err != nil {
				t.Fatal(err)
			}
			if results[0].Err != nil {
				t.Fatal(results[0].Err)
			}
		})
		if allocs > tc.pin {
			t.Errorf("%s: one warm one-cell suite allocated %.0f objects, pinned at %.0f", tc.sc.Name, allocs, tc.pin)
		}
	}
}

// memCheckpoint is an in-memory Checkpoint over a fixed journal; it counts
// the cells handed to Save.
type memCheckpoint struct {
	cells map[int]ResultRecord
	saves atomic.Int32
}

func (m *memCheckpoint) Lookup(index int, name string) (ResultRecord, bool) {
	rec, ok := m.cells[index]
	return rec, ok && rec.Scenario == name
}

func (m *memCheckpoint) Save(int, string, ResultRecord) {
	m.saves.Add(1)
}

// TestEvaluateSuiteCancelledReplaysJournal: a run whose ctx is already
// cancelled evaluates nothing, yet every cell the checkpoint holds still
// comes back resumed with the journal's curve; only the others come back
// cancelled.
func TestEvaluateSuiteCancelledReplaysJournal(t *testing.T) {
	suite := testSuite()
	full, _, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp := &memCheckpoint{cells: make(map[int]ResultRecord)}
	for i := 0; i < len(full); i += 2 {
		if full[i].Err != nil {
			t.Fatalf("%s: %v", full[i].Scenario.Name, full[i].Err)
		}
		cp.cells[i] = recordOne(full[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := EvaluateSuiteCheckpointCtx(ctx, suite, 0, cp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(full) {
		t.Fatalf("%d results for %d cells", len(results), len(full))
	}
	if stats.ResumedCells != len(cp.cells) || stats.Cancelled != len(full)-len(cp.cells) || stats.Evaluated != 0 {
		t.Errorf("stats = %+v, want %d resumed and %d cancelled", stats, len(cp.cells), len(full)-len(cp.cells))
	}
	for i, res := range results {
		rec, journaled := cp.cells[i]
		switch {
		case journaled && res.Err != nil:
			t.Errorf("%s: journaled cell not replayed: %v", res.Scenario.Name, res.Err)
		case journaled && !reflect.DeepEqual(recordOne(res), rec):
			t.Errorf("%s: replayed %+v, journal holds %+v", res.Scenario.Name, recordOne(res), rec)
		case !journaled && !errors.Is(res.Err, context.Canceled):
			t.Errorf("%s: err = %v, want cancelled", res.Scenario.Name, res.Err)
		}
	}
	if n := cp.saves.Load(); n != 0 {
		t.Errorf("a cancelled run saved %d cells", n)
	}
}

// TestEvaluateSuiteIsolatesBadScenario: one bad grid point errors without
// taking down the suite.
func TestEvaluateSuiteIsolatesBadScenario(t *testing.T) {
	bad := Fig2()
	bad.Name = "bad: unknown preset"
	bad.Hardware = HardwareSpec{Preset: "abacus"}
	suite := testSuite()
	suite.Scenarios = append(suite.Scenarios, bad)
	results, stats, err := EvaluateSuiteStatsCtx(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 1 || stats.Evaluated+stats.Failed != stats.Scenarios {
		t.Errorf("stats = %+v, want exactly one failed cell and a reconciling total", stats)
	}
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
			if res.Scenario.Name != bad.Name {
				t.Errorf("unexpected failure: %s: %v", res.Scenario.Name, res.Err)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d failures, want exactly the bad scenario", failed)
	}
}

func TestDecodeSuiteAcceptsSingleScenario(t *testing.T) {
	var sb strings.Builder
	if err := Fig2().Encode(&sb); err != nil {
		t.Fatal(err)
	}
	suite, err := DecodeSuite(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Scenarios) != 1 || suite.Scenarios[0].Name != Fig2().Name {
		t.Errorf("wrapped suite = %+v", suite)
	}
}

func TestSuiteRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := testSuite().Encode(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSuite(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := expand(testSuite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := expand(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansion changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("scenario %d renamed: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
}

func TestDecodeSuiteRejectsGarbage(t *testing.T) {
	for i, raw := range []string{
		`not json`,
		`{"scenarios": [{}], "bogus": 1}`,
		`{"name":"x","scenarios":[]}`, // no scenarios and no sweep
	} {
		if _, err := DecodeSuite(strings.NewReader(raw)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSuiteObjectiveValidation(t *testing.T) {
	s := testSuite()
	for _, obj := range Objectives() {
		s.Objective = obj
		if _, err := expand(s); err != nil {
			t.Errorf("objective %q rejected: %v", obj, err)
		}
	}
	s.Objective = "fastest"
	if _, err := expand(s); err == nil || !strings.Contains(err.Error(), "fastest") {
		t.Errorf("unknown objective accepted: %v", err)
	}
	// The decoder validates through Cells, so a bad objective fails at
	// load time too.
	s.Objective = "pareto"
	var sb strings.Builder
	if err := s.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSuite(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != "pareto" {
		t.Errorf("objective lost in round trip: %q", got.Objective)
	}
}

// TestSweepRePricesNetworkPreset: a bandwidth axis over a base that names a
// network preset replaces the preset instead of conflicting with it, and a
// protocol-kind switch inherits the preset's cataloged bandwidth.
func TestSweepRePricesNetworkPreset(t *testing.T) {
	base := Fig2()
	base.Protocol = ProtocolSpec{Kind: "spark", Network: "gigabit-ethernet"}
	sw := Sweep{
		Base:                 base,
		BandwidthsBitsPerSec: []float64{10e9},
		Protocols:            []string{"ring"},
	}
	scenarios, err := expandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 {
		t.Fatalf("%d scenarios", len(scenarios))
	}
	got := scenarios[0]
	if got.Protocol.Network != "" {
		t.Errorf("swept cell kept the network preset: %+v", got.Protocol)
	}
	if got.Protocol.BandwidthBitsPerSec != 10e9 || got.Protocol.Kind != "ring" {
		t.Errorf("swept cell protocol = %+v", got.Protocol)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("swept cell does not validate: %v", err)
	}
	// Without a bandwidth axis, the kind switch carries the preset's rate.
	kindOnly := Sweep{Base: base, Protocols: []string{"ring"}}
	scenarios, err = expandSweep(kindOnly)
	if err != nil {
		t.Fatal(err)
	}
	if b := scenarios[0].Protocol.BandwidthBitsPerSec; b != 1e9 {
		t.Errorf("kind switch inherited bandwidth %g, want the preset's 1e9", b)
	}
}
