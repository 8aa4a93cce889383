package registry

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dmlscale/internal/comm"
	"dmlscale/internal/core"
	"dmlscale/internal/hardware"
	"dmlscale/internal/partition"
	"dmlscale/internal/units"
)

func gig(kind string) ProtocolSpec {
	return ProtocolSpec{Kind: kind, BandwidthBitsPerSec: 1e9}
}

func TestEveryLeafProtocolBuilds(t *testing.T) {
	leaves := LeafProtocolKinds()
	for _, kind := range leaves {
		m, err := Protocol(gig(kind))
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if m.Name() == "" || m.Time(1e6, 4) < 0 {
			t.Errorf("%s: bad model %+v", kind, m)
		}
	}
	// Composites are excluded from the leaf list but present in the full
	// catalog.
	leafSet := map[string]bool{}
	for _, kind := range leaves {
		leafSet[kind] = true
	}
	for _, composite := range []string{"sum", "scale", "per-iter", "with-latency"} {
		if leafSet[composite] {
			t.Errorf("%s listed as a leaf kind", composite)
		}
	}
	if len(leaves)+4 != len(ProtocolKinds()) {
		t.Errorf("%d leaves + 4 composites != %d kinds", len(leaves), len(ProtocolKinds()))
	}
}

func TestProtocolGoldenTimes(t *testing.T) {
	// One payload/bandwidth point per closed form, against the paper's
	// formulas: payload = 1e9 bits on a 1 Gbit/s link → 1 s per transfer.
	cases := []struct {
		spec ProtocolSpec
		n    int
		want float64
	}{
		{gig("linear"), 4, 4},             // n · p/B
		{gig("tree"), 4, 2},               // log2(4) · p/B
		{gig("two-stage-tree"), 4, 4},     // 2·log2(4) · p/B
		{gig("ring"), 4, 1.5},             // 2·(n−1)/n · p/B
		{gig("shuffle"), 4, 0.75},         // (n−1)/n · p/B
		{gig("recursive-doubling"), 4, 2}, // ceil(log2 4) · p/B
		{ProtocolSpec{Kind: "sqrt-waves", BandwidthBitsPerSec: 1e9, Waves: 2}, 4, 4}, // 2·ceil(√4)
		{ProtocolSpec{Kind: "shared-memory"}, 64, 0},
		{ProtocolSpec{Kind: "scale", Factor: 3, Of: []ProtocolSpec{gig("tree")}}, 4, 6},
		{ProtocolSpec{Kind: "per-iter", Iterations: 10, Of: []ProtocolSpec{gig("shuffle")}}, 4, 7.5},
		{ProtocolSpec{Kind: "sum", Of: []ProtocolSpec{gig("tree"), gig("linear")}}, 4, 6},
		{ProtocolSpec{Kind: "with-latency", LatencySeconds: 0.5, Stages: "tree",
			Of: []ProtocolSpec{gig("tree")}}, 4, 3}, // 2 + 0.5·ceil(log2 4)
	}
	for _, c := range cases {
		m, err := Protocol(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec.Kind, err)
			continue
		}
		got := float64(m.Time(1e9, c.n))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: t(1e9 bits, %d) = %v, want %v", c.spec.Kind, c.n, got, c.want)
		}
	}
}

func TestProtocolRejectsBadSpecs(t *testing.T) {
	bad := []ProtocolSpec{
		{Kind: "warp-drive", BandwidthBitsPerSec: 1e9},
		{Kind: "tree"}, // missing bandwidth
		{Kind: "tree", BandwidthBitsPerSec: -1},
		{Kind: "sum"}, // no inner
		{Kind: "scale", Factor: 2, Of: []ProtocolSpec{gig("tree"), gig("tree")}},
		{Kind: "scale", Of: []ProtocolSpec{gig("tree")}}, // no factor
		{Kind: "per-iter", Of: []ProtocolSpec{gig("tree")}},
		{Kind: "with-latency", LatencySeconds: 1, Stages: "spiral", Of: []ProtocolSpec{gig("tree")}},
		{Kind: "sum", Of: []ProtocolSpec{{Kind: "nope"}}}, // bad inner
	}
	for i, spec := range bad {
		if _, err := Protocol(spec); err == nil {
			t.Errorf("case %d (%s): bad spec accepted", i, spec.Kind)
		}
	}
}

func TestHardwarePresetsAndCustom(t *testing.T) {
	for _, name := range NodePresets() {
		node, err := PresetNode(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := node.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PresetNode("abacus"); err == nil {
		t.Error("unknown preset accepted")
	}
	node, err := Node(HardwareSpec{PeakFlops: 1e12, Efficiency: 0.5, Name: "bench box"})
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(node.EffectiveFlops()); math.Abs(f-0.5e12) > 1 {
		t.Errorf("custom effective flops = %v", f)
	}
	// Efficiency defaults to 1.
	node, err = Node(HardwareSpec{PeakFlops: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if node.Efficiency != 1 {
		t.Errorf("default efficiency = %v", node.Efficiency)
	}
	if _, err := Node(HardwareSpec{PeakFlops: -5}); err == nil {
		t.Error("negative flops accepted")
	}
	for _, name := range NetworkPresets() {
		if _, err := PresetNetwork(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := PresetNetwork("tin-cans"); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestGraphFamilies(t *testing.T) {
	for _, family := range GraphFamilies() {
		spec := GraphSpec{Family: family, Vertices: 256, Seed: 7}
		if family == "power-law" {
			spec.Edges = 1024
			spec.MaxDegree = 32
		}
		degrees, err := GraphDegreesCtx(context.Background(), spec)
		if err != nil {
			t.Errorf("%s degrees: %v", family, err)
			continue
		}
		if len(degrees) == 0 {
			t.Errorf("%s: empty degree sequence", family)
		}
		g, err := BuildGraph(spec)
		if err != nil {
			t.Errorf("%s build: %v", family, err)
			continue
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: degenerate graph V=%d E=%d", family, g.NumVertices(), g.NumEdges())
		}
	}
	if _, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "moebius", Vertices: 8}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "grid", Vertices: 0}); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "grid", Vertices: maxGraphVertices + 1}); err == nil {
		t.Error("oversized graph accepted")
	}
}

// TestPowerLawMaxDegreeBelowVertices: a power-law spec may ask for a
// maximum degree up to V−1, the most a simple graph allows. From V on it
// fails before any generation, so a huge max_degree, which would cost the
// generator time and memory in proportion, costs nothing.
func TestPowerLawMaxDegreeBelowVertices(t *testing.T) {
	spec := GraphSpec{Family: "power-law", Vertices: 256, Edges: 1024, MaxDegree: 255, Seed: 7}
	degrees, err := GraphDegreesCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("max_degree V-1: %v", err)
	}
	if len(degrees) != 256 {
		t.Fatalf("max_degree V-1: %d degrees, want 256", len(degrees))
	}
	for _, spec := range []GraphSpec{
		{Family: "power-law", Vertices: 256, Edges: 1024, MaxDegree: 256, Seed: 7},
		{Family: "power-law", Vertices: 1000, Edges: 1_000_000, MaxDegree: 1_000_000, Seed: 7},
	} {
		misses := SnapshotCaches().Degrees.Misses
		_, err := GraphDegreesCtx(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at most %d", spec.Vertices-1)) {
			t.Errorf("max_degree %d of %d vertices: err = %v, want one naming the bound %d", spec.MaxDegree, spec.Vertices, err, spec.Vertices-1)
		}
		if _, err := BuildGraph(spec); err == nil {
			t.Errorf("max_degree %d of %d vertices: BuildGraph accepted it", spec.MaxDegree, spec.Vertices)
		}
		if got := SnapshotCaches().Degrees.Misses; got != misses {
			t.Errorf("max_degree %d of %d vertices: the degree cache missed %d times, want no generation", spec.MaxDegree, spec.Vertices, got-misses)
		}
	}
}

func TestArchitectures(t *testing.T) {
	for _, name := range Architectures() {
		net, err := Architecture(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		summary, err := net.Summarize()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if summary.Weights <= 0 || summary.TrainingFlops() <= 0 {
			t.Errorf("%s: empty summary %+v", name, summary)
		}
	}
	if _, err := Architecture("perceptron-9000"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func xeon(t *testing.T) hardware.Node {
	t.Helper()
	node, err := PresetNode("xeon-e3-1240")
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestFamilyAliases: a family has one spelling, its registry key; only the
// empty family resolves, to gd-strong.
func TestFamilyAliases(t *testing.T) {
	for _, name := range append(Families(), "") {
		want := name
		if name == "" {
			want = "gd-strong"
		}
		if got, err := CanonicalFamily(name); err != nil || got != want {
			t.Errorf("%q → %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range []string{"quantum", "gd", "strong", "weak", "async", "bp", "gi", "inference"} {
		if _, err := CanonicalFamily(name); err == nil {
			t.Errorf("family %q accepted", name)
		}
	}
	if _, err := Protocol(ProtocolSpec{Kind: "none"}); err == nil {
		t.Error("protocol kind none accepted; shared-memory is its one spelling")
	}
}

// TestGraphAxisBound: a graph-family model refuses a worker axis of 1,025
// before generating its graph, with an error that names the bound, and
// prices an axis of 1,024 in one kernel pass.
func TestGraphAxisBound(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := WorkloadSpec{Graph: &GraphSpec{Family: "dns", Vertices: 1000, Seed: 1}, OpsPerEdge: 14, Trials: 1}
	ctx := context.Background()
	_, err := BuildModelCtx(WithKernelAxis(ctx, 1025), "graph-inference", "over", spec, xeon(t), nil)
	if err == nil || !strings.Contains(err.Error(), "bound of 1024 workers") {
		t.Fatalf("axis of 1,025 workers: err = %v, want the bound of 1024 named", err)
	}
	if st := SnapshotCaches(); st.Degrees.Misses != 0 || st.Estimates.Misses != 0 {
		t.Fatalf("a refused axis generated its graph or priced estimates: %+v", st)
	}
	model, err := BuildModelCtx(WithKernelAxis(ctx, 1024), "graph-inference", "at bound", spec, xeon(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm := float64(model.Time(1024)); !(tm > 0) || math.IsInf(tm, 0) {
		t.Errorf("t(1024) = %v", tm)
	}
	if st := SnapshotCaches(); st.KernelBatches != 1 || st.KernelBatchKeys != 1024 {
		t.Errorf("axis of 1,024 workers: %d batches filling %d keys, want 1 filling 1024", st.KernelBatches, st.KernelBatchKeys)
	}
}

func TestBuildModelEveryFamily(t *testing.T) {
	node := xeon(t)
	protocol, err := Protocol(gig("spark"))
	if err != nil {
		t.Fatal(err)
	}
	gdSpec := WorkloadSpec{FlopsPerExample: 6 * 12e6, BatchSize: 60000, Parameters: 12e6, PrecisionBits: 64}
	graphSpec := WorkloadSpec{
		Graph:      &GraphSpec{Family: "dns", Vertices: 4000, Seed: 3},
		OpsPerEdge: 14, Trials: 2,
	}
	mrfSpec := WorkloadSpec{
		Graph:  &GraphSpec{Family: "grid", Vertices: 1024},
		States: 3, Trials: 2,
	}
	asyncSpec := gdSpec
	asyncSpec.ConvergencePenalty = 0.05

	cases := []struct {
		family string
		spec   WorkloadSpec
	}{
		{"gd-strong", gdSpec},
		{"gd-weak", gdSpec},
		{"graph-inference", graphSpec},
		{"mrf", mrfSpec},
		{"async-gd", asyncSpec},
	}
	for _, c := range cases {
		model, err := BuildModelCtx(context.Background(), c.family, c.family+" case", c.spec, node, protocol)
		if err != nil {
			t.Errorf("%s: %v", c.family, err)
			continue
		}
		if s := model.Speedup(1); math.Abs(s-1) > 1e-9 {
			t.Errorf("%s: s(1) = %v", c.family, s)
		}
		if tt := model.Time(8); tt < 0 || math.IsNaN(float64(tt)) {
			t.Errorf("%s: t(8) = %v", c.family, tt)
		}
	}
}

func TestBuildModelGoldenGDStrong(t *testing.T) {
	// The paper's Fig. 2 numbers: t(1) = 6·12e6·60000/(0.8·105.6e9) +
	// spark-comm(64·12e6 bits, 1).
	node := xeon(t)
	protocol, err := Protocol(gig("spark"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModelCtx(context.Background(), "gd-strong", "fig2", WorkloadSpec{
		FlopsPerExample: 6 * 12e6, BatchSize: 60000, Parameters: 12e6, PrecisionBits: 64,
	}, node, protocol)
	if err != nil {
		t.Fatal(err)
	}
	wantComp := 6.0 * 12e6 * 60000 / (0.8 * 105.6e9)
	wantComm := float64(comm.SparkGradient(units.Gbps).Time(units.Bits(64*12e6), 1))
	got := float64(model.Time(1))
	if math.Abs(got-(wantComp+wantComm)) > 1e-9 {
		t.Errorf("t(1) = %v, want %v", got, wantComp+wantComm)
	}
}

func TestArchitectureFillsWorkload(t *testing.T) {
	node := xeon(t)
	protocol, err := Protocol(gig("spark"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModelCtx(context.Background(), "gd-strong", "from catalog", WorkloadSpec{
		Architecture: "fc-mnist", BatchSize: 60000, PrecisionBits: 64,
	}, node, protocol)
	if err != nil {
		t.Fatal(err)
	}
	// The counted architecture reproduces the paper's optimum at 9 workers
	// (the integration test asserts the same through the facade).
	n, _, err := model.OptimalWorkers(13)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("architecture-derived optimum = %d, want 9", n)
	}
}

func TestBuildModelRejectsBadSpecs(t *testing.T) {
	node := xeon(t)
	protocol, err := Protocol(gig("spark"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		family string
		spec   WorkloadSpec
	}{
		{"gd-strong", WorkloadSpec{}},
		{"gd-strong", WorkloadSpec{FlopsPerExample: 1, BatchSize: -2, Parameters: 1}},
		{"graph-inference", WorkloadSpec{OpsPerEdge: 14}},                                  // no graph
		{"graph-inference", WorkloadSpec{Graph: &GraphSpec{Family: "dns", Vertices: 100}}}, // no ops
		{"graph-inference", WorkloadSpec{Graph: &GraphSpec{Family: "dns", Vertices: 100}, OpsPerEdge: 14, Trials: -1}},
		{"mrf", WorkloadSpec{Graph: &GraphSpec{Family: "grid", Vertices: 64}, States: 1}},
		{"async-gd", WorkloadSpec{FlopsPerExample: 1, BatchSize: 1, Parameters: 1, ConvergencePenalty: -1}},
	}
	for i, c := range cases {
		if _, err := BuildModelCtx(context.Background(), c.family, "bad", c.spec, node, protocol); err == nil {
			t.Errorf("case %d (%s): bad spec accepted", i, c.family)
		}
	}
}

func TestGraphInferenceModelConcurrentMemo(t *testing.T) {
	degrees := make([]int32, 5000)
	for i := range degrees {
		degrees[i] = int32(1 + i%7)
	}
	model, err := GraphInferenceModelCtx(context.Background(), "race", degrees, 14, 1e9, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the memo from many goroutines; run with -race to prove the
	// cache is guarded.
	var wg sync.WaitGroup
	results := make([]float64, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = model.Speedup(1 + g%8)
		}(g)
	}
	wg.Wait()
	for g := 0; g < 32; g++ {
		want := model.Speedup(1 + g%8)
		if results[g] != want {
			t.Errorf("goroutine %d: speedup %v, want memoized %v", g, results[g], want)
		}
	}
}

func TestGraphInferenceModelRejectsDegenerateInputs(t *testing.T) {
	ctx := context.Background()
	degrees := []int32{1, 2, 3}
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty degrees", func() error { _, err := GraphInferenceModelCtx(ctx, "x", nil, 14, 1e9, 1, 0); return err }},
		{"zero ops", func() error { _, err := GraphInferenceModelCtx(ctx, "x", degrees, 0, 1e9, 1, 0); return err }},
		{"nan ops", func() error { _, err := GraphInferenceModelCtx(ctx, "x", degrees, math.NaN(), 1e9, 1, 0); return err }},
		{"zero flops", func() error { _, err := GraphInferenceModelCtx(ctx, "x", degrees, 14, 0, 1, 0); return err }},
		{"zero trials", func() error { _, err := GraphInferenceModelCtx(ctx, "x", degrees, 14, 1e9, 0, 0); return err }},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGraphCacheReusesGeneration(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := GraphSpec{Family: "dns", Vertices: 4000, Seed: 21}
	a, err := GraphDegreesCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GraphDegreesCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("same spec regenerated its degree sequence instead of hitting the cache")
	}
	// A different seed is a different cache key.
	other, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "dns", Vertices: 4000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if &other[0] == &a[0] {
		t.Error("different specs shared a cache entry")
	}
}

func TestGraphCacheConcurrentSingleFlight(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := GraphSpec{Family: "power-law", Vertices: 3000, Edges: 15000, MaxDegree: 500, Seed: 4}
	var wg sync.WaitGroup
	results := make([][]int32, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			degrees, err := GraphDegreesCtx(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = degrees
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if len(results[i]) == 0 {
			t.Fatalf("goroutine %d got no degrees", i)
		}
		if &results[i][0] != &results[0][0] {
			t.Errorf("goroutine %d generated its own copy; single-flight failed", i)
		}
	}
}

func TestGraphInferenceDeterministicAtAnyParallelism(t *testing.T) {
	degrees, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "dns", Vertices: 20000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]int, 16)
	for i := range workers {
		workers[i] = i + 1
	}
	curve := func(parallelism int) []float64 {
		core.SetParallelism(parallelism)
		model, err := GraphInferenceModelCtx(context.Background(), "determinism", degrees, 14, 1e9, 5, 99)
		if err != nil {
			t.Fatal(err)
		}
		c, err := model.SpeedupCurve(workers)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 2*len(c.Points))
		for _, p := range c.Points {
			out = append(out, float64(p.Time), p.Speedup)
		}
		return out
	}
	defer core.SetParallelism(0)
	serial := curve(1)
	parallel := curve(runtime.GOMAXPROCS(0))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("value %d differs: serial %v, parallel %v — curve is not bit-identical under parallelism", i, serial[i], parallel[i])
		}
	}
}

// TestGraphCacheEvictsLRU: the bounded cache is a real LRU — filling it past
// the cap evicts the least recently used spec (which then regenerates) while
// a recently touched spec stays cached.
func TestGraphCacheEvictsLRU(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	spec := func(i int) GraphSpec {
		return GraphSpec{Family: "cycle", Vertices: 16 + i}
	}
	first := make([][]int32, maxGraphCacheEntries)
	for i := 0; i < maxGraphCacheEntries; i++ {
		degrees, err := GraphDegreesCtx(context.Background(), spec(i))
		if err != nil {
			t.Fatal(err)
		}
		first[i] = degrees
	}
	if n := degreeCache.Len(); n != maxGraphCacheEntries {
		t.Fatalf("cache holds %d specs after filling, cap is %d", n, maxGraphCacheEntries)
	}
	// Touch spec 0 so spec 1 becomes the LRU, then overflow by one.
	if degrees, err := GraphDegreesCtx(context.Background(), spec(0)); err != nil || &degrees[0] != &first[0][0] {
		t.Fatalf("touching spec 0 regenerated it (err %v)", err)
	}
	if _, err := GraphDegreesCtx(context.Background(), spec(maxGraphCacheEntries)); err != nil {
		t.Fatal(err)
	}
	if n := degreeCache.Len(); n != maxGraphCacheEntries {
		t.Fatalf("cache holds %d specs after overflow, cap is %d", n, maxGraphCacheEntries)
	}
	// Spec 0 survived (recently used); spec 1 was evicted and regenerates.
	if degrees, err := GraphDegreesCtx(context.Background(), spec(0)); err != nil || &degrees[0] != &first[0][0] {
		t.Errorf("recently used spec was evicted (err %v)", err)
	}
	if degrees, err := GraphDegreesCtx(context.Background(), spec(1)); err != nil || &degrees[0] == &first[1][0] {
		t.Errorf("LRU spec not evicted: cache returned the original slice (err %v)", err)
	}
}

// TestEstimateCacheComputesEachKernelOnce: the Monte-Carlo estimate cache
// is process-wide, so two model instances over the same degree sequence and
// sampling parameters share every per-worker-count estimate — the cache's
// misses count the estimations actually performed.
func TestEstimateCacheComputesEachKernelOnce(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees, err := GraphDegreesCtx(context.Background(), GraphSpec{Family: "dns", Vertices: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sample := func(m core.Model) {
		for n := 1; n <= 8; n++ {
			m.Time(n)
		}
	}
	m1, err := GraphInferenceModelCtx(context.Background(), "one", degrees, 14, 1e9, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	sample(m1)
	if st := SnapshotCaches().Estimates; st.Misses != 8 {
		t.Fatalf("first model: %d misses, want 8 (one per worker count)", st.Misses)
	}
	m2, err := GraphInferenceModelCtx(context.Background(), "two", degrees, 14, 1e9, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	sample(m2)
	st := SnapshotCaches().Estimates
	if st.Misses != 8 {
		t.Errorf("second identical model re-estimated: %d misses, want 8", st.Misses)
	}
	if st.Hits < 8 {
		t.Errorf("second identical model hit the cache %d times, want ≥ 8", st.Hits)
	}
	// A different seed is a different kernel.
	m3, err := GraphInferenceModelCtx(context.Background(), "three", degrees, 14, 1e9, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sample(m3)
	if st := SnapshotCaches().Estimates; st.Misses != 16 {
		t.Errorf("distinct seed shared estimates: %d misses, want 16", st.Misses)
	}
	// Bit-identity: both instances price every point identically.
	for n := 1; n <= 8; n++ {
		if m1.Time(n) != m2.Time(n) {
			t.Errorf("shared kernel diverged at n=%d: %v vs %v", n, m1.Time(n), m2.Time(n))
		}
	}
}

// TestGraphInferenceModelPropagatesEstimatorErrors: a worker count the
// estimator rejects must surface as an error (a panic the suite evaluators
// convert), never as a silent +Inf-time point.
func TestGraphInferenceModelPropagatesEstimatorErrors(t *testing.T) {
	model, err := GraphInferenceModelCtx(context.Background(), "guard", []int32{1, 2, 3, 2}, 14, 1e9, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Time(0) returned instead of propagating the estimator error")
				return
			}
			if !strings.Contains(fmt.Sprint(r), "worker count 0 < 1") {
				t.Errorf("panic %v does not explain the misuse", r)
			}
		}()
		if v := model.Time(0); math.IsInf(float64(v), 1) {
			t.Error("Time(0) silently produced an infinite-time point")
		}
	}()
	// The suite evaluator turns the panic into a per-job error. Curve
	// validation rejects non-positive worker counts before sampling, so the
	// misuse is driven from inside a wrapping model's time function —
	// exactly where a buggy library caller would trip it.
	misuse := core.Model{
		Name:        "misuse",
		Computation: func(n int) units.Seconds { return model.Time(n - 1) },
	}
	evaluate := func(name string, m core.Model, workers []int) core.JobResult {
		return core.EvaluateOne(context.Background(), core.Job{
			Name:     name,
			BuildCtx: func(context.Context) (core.Model, error) { return m, nil },
			Workers:  workers,
		})
	}
	if res := evaluate("misuse", misuse, []int{1}); res.Err == nil || !strings.Contains(res.Err.Error(), "worker count 0 < 1") {
		t.Errorf("estimator panic not converted into the job's error: %v", res.Err)
	}
	// Valid worker counts on the same model keep evaluating cleanly.
	if res := evaluate("valid", model, []int{1, 2}); res.Err != nil {
		t.Errorf("valid worker counts failed: %v", res.Err)
	}
}

// TestEstimateCacheConcurrentEvictionHammer drives the process-wide
// estimate cache far past its bound from concurrent model evaluations — the
// sweep-shaped contention case; run with -race. Every value must equal a
// fresh uncached estimation even while entries churn.
func TestEstimateCacheConcurrentEvictionHammer(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	degrees := make([]int32, 64)
	for i := range degrees {
		degrees[i] = int32(1 + i%5)
	}
	seeds := 700
	if testing.Short() {
		seeds = 80
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < seeds; s++ {
				seed := int64(g*seeds + s)
				workers := 1 + s%4
				model, err := GraphInferenceModelCtx(context.Background(), "hammer", degrees, 2, 1e9, 1, seed)
				if err != nil {
					t.Error(err)
					return
				}
				got := model.Time(workers)
				est, err := partition.MonteCarloMaxEdges(degrees, workers, 1, seed)
				if err != nil {
					t.Error(err)
					return
				}
				if want := units.ComputeTime(est.MaxEdges*2, 1e9); got != want {
					t.Errorf("seed %d, n %d: cached %v != fresh %v", seed, workers, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := SnapshotCaches().Estimates; !testing.Short() && st.Evictions == 0 {
		t.Errorf("keyspace of %d kernels never evicted: %+v", 8*seeds, st)
	}
}

func TestConvergenceSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		spec    ConvergenceSpec
		wantErr bool
	}{
		{"linear", ConvergenceSpec{Rule: "linear", BaseIterations: 100}, false},
		{"sqrt", ConvergenceSpec{Rule: "sqrt", BaseIterations: 1e6}, false},
		{"diminishing", ConvergenceSpec{Rule: "diminishing", BaseIterations: 100, CriticalBatchGrowth: 8}, false},
		{"unknown rule", ConvergenceSpec{Rule: "warp", BaseIterations: 100}, true},
		{"zero iterations", ConvergenceSpec{Rule: "linear"}, true},
		{"negative iterations", ConvergenceSpec{Rule: "linear", BaseIterations: -1}, true},
		{"infinite iterations", ConvergenceSpec{Rule: "linear", BaseIterations: math.Inf(1)}, true},
		{"diminishing without kc", ConvergenceSpec{Rule: "diminishing", BaseIterations: 100}, true},
		{"diminishing kc below one", ConvergenceSpec{Rule: "diminishing", BaseIterations: 100, CriticalBatchGrowth: 0.5}, true},
		{"kc on the wrong rule", ConvergenceSpec{Rule: "sqrt", BaseIterations: 100, CriticalBatchGrowth: 8}, true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
			rule, err := tt.spec.IterationRule()
			if (err != nil) != tt.wantErr {
				t.Errorf("IterationRule() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && rule == nil {
				t.Error("valid spec resolved a nil rule")
			}
		})
	}
	if got := ConvergenceRules(); len(got) != 3 {
		t.Errorf("ConvergenceRules() = %v, want the 3 cataloged rules", got)
	}
}

// TestIterationModels: the per-iteration planning hooks of the gd families
// expose the right time laws and batch-growth regimes.
func TestIterationModels(t *testing.T) {
	node := xeon(t)
	protocol := comm.TwoStageTree{Bandwidth: units.BitsPerSecond(1e9)}
	spec := WorkloadSpec{FlopsPerExample: 72e6, BatchSize: 60000, Parameters: 12e6, PrecisionBits: 64}

	weak, ok, err := BuildIterationModel("gd-weak", "weak", spec, node, protocol)
	if err != nil || !ok {
		t.Fatalf("gd-weak hook: ok %v, err %v", ok, err)
	}
	// Weak scaling: compute is per-worker-constant, so iteration time grows
	// only by the communication term, and the batch grows linearly.
	computeOnly := float64(weak.Time(1)) - float64(protocol.Time(units.Bits(64*12e6), 1))
	for _, n := range []int{2, 8} {
		wantComm := float64(protocol.Time(units.Bits(64*12e6), n))
		if got := float64(weak.Time(n)); math.Abs(got-(computeOnly+wantComm)) > 1e-9*got {
			t.Errorf("weak iteration time(%d) = %v, want compute %v + comm %v", n, got, computeOnly, wantComm)
		}
		if k := weak.BatchGrowth(n); k != float64(n) {
			t.Errorf("weak batch growth(%d) = %v, want %d", n, k, n)
		}
	}

	strong, ok, err := BuildIterationModel("gd-strong", "strong", spec, node, protocol)
	if err != nil || !ok {
		t.Fatalf("gd-strong hook: ok %v, err %v", ok, err)
	}
	// Strong scaling: the iteration time is the per-iteration model's own
	// time and the batch never grows.
	m, err := BuildModelCtx(context.Background(), "gd-strong", "strong", spec, node, protocol)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		if got, want := float64(strong.Time(n)), float64(m.Time(n)); got != want {
			t.Errorf("strong iteration time(%d) = %v, want model time %v", n, got, want)
		}
		if k := strong.BatchGrowth(n); k != 1 {
			t.Errorf("strong batch growth(%d) = %v, want 1", n, k)
		}
	}

	async, ok, err := BuildIterationModel("async-gd", "async", WorkloadSpec{
		Family: "async-gd", FlopsPerExample: 72e6, BatchSize: 60000,
		Parameters: 12e6, PrecisionBits: 64, ConvergencePenalty: 0.05,
	}, node, protocol)
	if err != nil || !ok {
		t.Fatalf("async-gd hook: ok %v, err %v", ok, err)
	}
	if k := async.BatchGrowth(8); k != 1 {
		t.Errorf("async batch growth = %v, want 1", k)
	}
	if async.Time(1) <= 0 {
		t.Errorf("async iteration time(1) = %v", async.Time(1))
	}

	// Graph families have no iteration notion: ok is false, not an error.
	if _, ok, err := BuildIterationModel("mrf", "bp", WorkloadSpec{
		Family: "mrf", Graph: &GraphSpec{Family: "grid", Vertices: 64},
	}, node, comm.SharedMemory{}); err != nil || ok {
		t.Errorf("mrf hook: ok %v, err %v; want no hook and no error", ok, err)
	}
	// Unknown family is an error.
	if _, _, err := BuildIterationModel("warp", "x", spec, node, protocol); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestProtocolNetworkPreset: a protocol spec can inherit bandwidth (and for
// with-latency, latency) from a cataloged network preset, and an explicit
// bandwidth alongside the preset is a conflict.
func TestProtocolNetworkPreset(t *testing.T) {
	nw, err := PresetNetwork("gigabit-ethernet")
	if err != nil {
		t.Fatal(err)
	}
	viaPreset, err := Protocol(ProtocolSpec{Kind: "tree", Network: "gigabit-ethernet"})
	if err != nil {
		t.Fatal(err)
	}
	viaRaw, err := Protocol(ProtocolSpec{Kind: "tree", BandwidthBitsPerSec: float64(nw.Bandwidth)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := viaPreset.Time(1e9, 8), viaRaw.Time(1e9, 8); got != want {
		t.Errorf("preset bandwidth %v != raw bandwidth %v", got, want)
	}

	// Conflict: preset plus raw bandwidth.
	if _, err := Protocol(ProtocolSpec{Kind: "tree", Network: "gigabit-ethernet", BandwidthBitsPerSec: 1e9}); err == nil {
		t.Error("conflicting preset + raw bandwidth accepted")
	}
	// Unknown preset.
	if _, err := Protocol(ProtocolSpec{Kind: "tree", Network: "carrier-pigeon"}); err == nil {
		t.Error("unknown network preset accepted")
	}
	// A preset on a composite kind other than with-latency would silently
	// do nothing; it must be rejected instead.
	if _, err := Protocol(ProtocolSpec{
		Kind:    "sum",
		Network: "ten-gigabit-ethernet",
		Of:      []ProtocolSpec{{Kind: "tree", BandwidthBitsPerSec: 1e9}},
	}); err == nil || !strings.Contains(err.Error(), "no effect") {
		t.Errorf("network preset on sum accepted: %v", err)
	}

	// with-latency inherits the preset's latency when none is given.
	inner := ProtocolSpec{Kind: "tree", BandwidthBitsPerSec: 1e9}
	viaLatencyPreset, err := Protocol(ProtocolSpec{Kind: "with-latency", Network: "gigabit-ethernet", Of: []ProtocolSpec{inner}})
	if err != nil {
		t.Fatal(err)
	}
	viaLatencyRaw, err := Protocol(ProtocolSpec{Kind: "with-latency", LatencySeconds: float64(nw.Latency), Of: []ProtocolSpec{inner}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := viaLatencyPreset.Time(1e9, 8), viaLatencyRaw.Time(1e9, 8); got != want {
		t.Errorf("preset latency time %v != raw latency time %v", got, want)
	}
}
