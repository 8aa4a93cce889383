package partition

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"dmlscale/internal/core"
	"dmlscale/internal/graph"
	"dmlscale/internal/obs"
)

func uniformDegrees(n int, d int32) []int32 {
	ds := make([]int32, n)
	for i := range ds {
		ds[i] = d
	}
	return ds
}

func TestRandomAssignment(t *testing.T) {
	a, err := Random(1000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, w := range a.Owner {
		counts[w]++
	}
	for w, c := range counts {
		if c < 180 || c > 320 {
			t.Errorf("worker %d got %d vertices; badly unbalanced", w, c)
		}
	}
	// Determinism.
	b, _ := Random(1000, 4, 7)
	for i := range a.Owner {
		if a.Owner[i] != b.Owner[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestSizeErrors(t *testing.T) {
	if _, err := Random(0, 3, 1); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := Random(5, 0, 1); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := GreedyByDegree(nil, 2); err == nil {
		t.Error("empty degrees accepted")
	}
	bad := Assignment{Workers: 2, Owner: []int32{0, 5}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestGreedyByDegreeBalances(t *testing.T) {
	// One huge hub and many small vertices: greedy must isolate the hub.
	degrees := append([]int32{1000}, uniformDegrees(999, 2)...)
	a, err := GreedyByDegree(degrees, 4)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := DegreeLoads(degrees, a)
	if err != nil {
		t.Fatal(err)
	}
	// Total = 1000 + 1998 = 2998; the hub's worker should get little else.
	hubWorker := a.Owner[0]
	if loads[hubWorker] > 1010 {
		t.Errorf("hub worker load = %d; greedy failed to isolate the hub", loads[hubWorker])
	}
	// Greedy max load is within 15%% of the random assignment's.
	rnd, _ := Random(len(degrees), 4, 3)
	rndLoads, _ := DegreeLoads(degrees, rnd)
	if MaxLoad(loads, 0) > MaxLoad(rndLoads, 0) {
		t.Errorf("greedy max load %v worse than random %v", MaxLoad(loads, 0), MaxLoad(rndLoads, 0))
	}
}

func TestGreedyByDegreeMatchesReferenceOrder(t *testing.T) {
	// The counting sort must process vertices in descending degree, stable
	// in vertex id — the same order a straightforward stable sort gives —
	// so the flat-array rewrite cannot change any assignment.
	degrees, err := graph.PowerLawDegrees(2000, 12000, 400, 17)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GreedyByDegree(degrees, 7)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(degrees))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return degrees[order[a]] > degrees[order[b]] })
	owner := make([]int32, len(degrees))
	loads := make([]int64, 7)
	for _, v := range order {
		best := 0
		for w := 1; w < 7; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		owner[v] = int32(best)
		loads[best] += int64(degrees[v])
	}
	for v := range owner {
		if got.Owner[v] != owner[v] {
			t.Fatalf("vertex %d assigned to %d, reference says %d", v, got.Owner[v], owner[v])
		}
	}
}

func TestDegreeLoadsConservation(t *testing.T) {
	// Property: loads sum to the degree sum for any assignment.
	f := func(seed int64, rawWorkers uint8) bool {
		workers := int(rawWorkers%8) + 1
		degrees, err := graph.PowerLawDegrees(500, 3000, 200, seed)
		if err != nil {
			return false
		}
		a, err := Random(len(degrees), workers, seed)
		if err != nil {
			return false
		}
		loads, err := DegreeLoads(degrees, a)
		if err != nil {
			return false
		}
		var sum, want int64
		for _, l := range loads {
			sum += l
		}
		for _, d := range degrees {
			want += int64(d)
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDegreeLoadsErrors(t *testing.T) {
	a, _ := Random(5, 2, 1)
	if _, err := DegreeLoads(uniformDegrees(4, 1), a); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDupCorrectionPaperIdentities(t *testing.T) {
	// With n = 1, E_dup = ½·(V−1)·V·E/(V(V−1)/2) = E: all edges counted
	// twice, so E₁ = 2E − E = E exactly — the identity that makes
	// s(n) = E/maxEᵢ(n) self-consistent.
	v, e := 10000, int64(61000)
	dup := DupCorrection(v, e, 1)
	if math.Abs(dup-float64(e)) > 1e-6*float64(e) {
		t.Errorf("E_dup(n=1) = %v, want E = %d", dup, e)
	}
	// E_dup decreases with n roughly as 1/n².
	d2 := DupCorrection(v, e, 2)
	d4 := DupCorrection(v, e, 4)
	if ratio := d2 / d4; math.Abs(ratio-4) > 0.1 {
		t.Errorf("E_dup(2)/E_dup(4) = %v, want ≈ 4", ratio)
	}
}

func TestMonteCarloEstimateMatchesUniform(t *testing.T) {
	// For a regular graph the estimate should approach E/n (perfect
	// balance) as skew vanishes.
	degrees := uniformDegrees(10000, 10)
	est, err := MonteCarloMaxEdges(degrees, 4, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	edges := float64(10000*10) / 2
	perWorker := edges / 4 // plus double-counted intra-worker edges − dup ≈ balanced
	// Eᵢ = loads − dup; loads ≈ 2E/n = 25000; dup is tiny here (sparse),
	// so Eᵢ ≈ 2E/n − dup. Accept the band [E/n, 2.2·E/n].
	if est.MaxEdges < perWorker || est.MaxEdges > 2.2*perWorker {
		t.Errorf("MC estimate = %v, want within [%v, %v]", est.MaxEdges, perWorker, 2.2*perWorker)
	}
}

func TestMonteCarloSkewIncreasesMax(t *testing.T) {
	// A heavy-tailed sequence must yield a higher max load than a uniform
	// one with the same edge count.
	skewed, err := graph.PowerLawDegrees(10000, 50000, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform := uniformDegrees(10000, 10)
	estSkew, err := MonteCarloMaxEdges(skewed, 8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	estUni, err := MonteCarloMaxEdges(uniform, 8, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if estSkew.MaxEdges <= estUni.MaxEdges {
		t.Errorf("skewed max %v should exceed uniform max %v", estSkew.MaxEdges, estUni.MaxEdges)
	}
}

func TestTrialSeedIndependence(t *testing.T) {
	// Every (seed, trial) pair must open an independent stream: nearby
	// trials may not collide, or adjacent trials would redraw the same
	// assignments. The worker count deliberately does not participate —
	// common random numbers across worker counts is the batched kernel's
	// sampling contract.
	seen := map[uint64][2]int64{}
	for seed := int64(0); seed < 8; seed++ {
		for trial := 0; trial < 64; trial++ {
			s := TrialSeed(seed, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("TrialSeed(%d, %d) collides with (%d, %d)", seed, trial, prev[0], prev[1])
			}
			seen[s] = [2]int64{seed, int64(trial)}
		}
	}
	// Pinned values: the derivation is part of the estimator's contract —
	// changing it silently would change every published model number.
	pins := []struct {
		seed  int64
		trial int
		want  uint64
	}{
		{42, 0, 6332618229526065668},
		{42, 1, 17532488217563185893},
		{0, 0, 12035550249420947055},
	}
	for _, p := range pins {
		if got := TrialSeed(p.seed, p.trial); got != p.want {
			t.Errorf("TrialSeed(%d, %d) = %d, want %d", p.seed, p.trial, got, p.want)
		}
	}
}

func TestMonteCarloPinnedEstimate(t *testing.T) {
	// Golden value for the common-random-numbers estimator on a fixed
	// input (re-pinned from 699.8648648648649 when the batched kernel
	// replaced the per-worker-count hashed streams).
	degrees := make([]int32, 1000)
	for i := range degrees {
		degrees[i] = int32(1 + i%5)
	}
	est, err := MonteCarloMaxEdges(degrees, 4, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := 715.5315315315315; est.MaxEdges != want {
		t.Errorf("MaxEdges = %v, want pinned %v", est.MaxEdges, want)
	}
	if est.Trials != 3 {
		t.Errorf("Trials = %d, want 3", est.Trials)
	}
}

func TestMonteCarloBatchMatchesSingleton(t *testing.T) {
	// The bit-identity contract: Batch(W)[w] == Batch({w})[w] ==
	// MonteCarloMaxEdges(w) for every w ∈ W, whatever the order of W,
	// however many duplicates it holds, and at any parallelism — common
	// random numbers mean the estimate for w never depends on which other
	// worker counts shared its RNG pass. Singletons run the multiply-shift
	// lane loop and sets of more than maxLaneGroup counts run cut cells, so
	// the comparison pits the two inner loops against each other.
	degrees, err := graph.PowerLawDegrees(5000, 30000, 800, 13)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		degrees []int32
		sets    [][]int
	}{
		{"power-law", degrees, [][]int{
			{1, 2, 3, 4, 5, 6, 7, 8},
			{8, 3, 5, 1},
			{7},
			{4, 4, 2, 4}, // duplicates allowed, aligned output
			core.Range(1, 64),
			{12, 5, 64, 5, 1, 33, 12, 9, 2}, // unsorted, duplicates, cut cells
		}},
		// More workers than vertices: most slots stay empty and E_dup goes
		// negative.
		{"tiny", []int32{3, 1, 2, 2, 1, 5, 2}, [][]int{
			{8, 9, 10, 16, 3, 64},
			{64, 7, 100, 7, 1000},
		}},
	}
	const trials, seed = 4, 21
	defer core.SetParallelism(0)
	for _, par := range []int{1, 8} {
		core.SetParallelism(par)
		for _, c := range cases {
			for _, set := range c.sets {
				batch, err := MonteCarloMaxEdgesBatch(context.Background(), c.degrees, set, trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != len(set) {
					t.Fatalf("%s: batch over %v returned %d estimates", c.name, set, len(batch))
				}
				for i, w := range set {
					single, err := MonteCarloMaxEdges(c.degrees, w, trials, seed)
					if err != nil {
						t.Fatal(err)
					}
					if batch[i] != single {
						t.Errorf("%s par=%d |set|=%d: Batch[%d] (w=%d) = %v, singleton = %v",
							c.name, par, len(set), i, w, batch[i], single)
					}
				}
			}
		}
	}
}

func TestCutCellsExactAtEveryCut(t *testing.T) {
	// Random draws almost never land on a cut, so the property test above
	// cannot see an off-by-one there. Check every cut directly: at r = c−1,
	// c and c+1, and at both ends of the range, each worker count's slot
	// read off the cells must equal its multiply-shift slot ⌊r·w/2⁶⁴⌋.
	for _, set := range [][]int{
		core.Range(1, 64),
		{12, 5, 64, 5, 1, 33, 12, 9, 2},
		{1, 1, 1, 1, 1},
		{1000, 997, 500, 3, 2},
	} {
		cells := newCutCells(set)
		draws := []uint64{0, math.MaxUint64}
		for _, c := range cells.cuts {
			draws = append(draws, c-1, c, c+1)
		}
		for _, r := range draws {
			cell := cells.cell(r)
			ends := cells.ends
			for _, w := range set {
				slot := 0
				for ends[slot] <= int32(cell) {
					slot++
				}
				if want := bounded(r, w); slot != want {
					t.Fatalf("w=%d r=%#x: cell %d reads slot %d, multiply-shift gives %d", w, r, cell, slot, want)
				}
				ends = ends[w:]
			}
		}
	}
}

func TestMonteCarloShardSpanReportsLoop(t *testing.T) {
	// Each mc-shard span names the batch's largest worker count (the batch
	// need not be sorted) and its cut-cell count, 0 when the lane loop
	// priced it, so a trace shows which inner loop ran.
	buf := obs.NewTraceBuffer(0)
	obs.SetRecorder(buf)
	defer obs.SetRecorder(nil)
	degrees := uniformDegrees(500, 3)
	unsorted := []int{5, 64, 3, 9, 1}
	cells := newCutCells(unsorted).count()
	for _, c := range []struct {
		set            []int
		workers, cells string
	}{
		{unsorted, "64", strconv.Itoa(cells)},
		{[]int{9, 2}, "9", "0"},
	} {
		before := len(buf.Spans())
		if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, c.set, 2, 5); err != nil {
			t.Fatal(err)
		}
		spans := buf.Spans()[before:]
		if len(spans) == 0 {
			t.Fatalf("batch %v recorded no spans", c.set)
		}
		for _, sp := range spans {
			attrs := map[string]string{}
			for _, a := range sp.Attrs() {
				attrs[a.Key] = a.Value
			}
			if sp.Name() != "mc-shard" || attrs["workers"] != c.workers || attrs["cells"] != c.cells {
				t.Errorf("batch %v: span %s attrs %v, want workers=%s cells=%s", c.set, sp.Name(), attrs, c.workers, c.cells)
			}
		}
	}
}

func TestMonteCarloBatchErrors(t *testing.T) {
	degrees := uniformDegrees(10, 2)
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, nil, 1, 1); err == nil {
		t.Error("empty worker-count batch accepted")
	}
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{2, 0}, 1, 1); err == nil {
		t.Error("zero worker count inside batch accepted")
	}
	if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{2}, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMonteCarloBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	degrees := uniformDegrees(1000, 4)
	for _, set := range [][]int{{1, 2, 4}, core.Range(1, 64)} {
		if _, err := MonteCarloMaxEdgesBatch(ctx, degrees, set, 8, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled batch over %d counts returned %v, want context.Canceled", len(set), err)
		}
	}
}

func TestMonteCarloDeterministicAtAnyParallelism(t *testing.T) {
	degrees, err := graph.PowerLawDegrees(20000, 120000, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer core.SetParallelism(0)
	core.SetParallelism(1)
	serial, err := MonteCarloMaxEdges(degrees, 12, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	core.SetParallelism(8)
	parallel, err := MonteCarloMaxEdges(degrees, 12, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MaxEdges != parallel.MaxEdges {
		t.Errorf("serial %v != parallel %v: trial sharding changed the estimate", serial.MaxEdges, parallel.MaxEdges)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarloMaxEdges(uniformDegrees(10, 2), 2, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := MonteCarloMaxEdges(nil, 2, 1, 1); err == nil {
		t.Error("empty degrees accepted")
	}
}

// TestExactLoads checks DegreeLoads over a materialized graph's degrees
// against hand-counted per-worker loads.
func TestExactLoads(t *testing.T) {
	// 4-cycle split in half: each worker owns 2 adjacent vertices, one
	// intra edge (counted twice) + two cross edges (once each side) = 4.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := Assignment{Workers: 2, Owner: []int32{0, 0, 1, 1}}
	loads, err := DegreeLoads(g.Degrees(), a)
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 4 || loads[1] != 4 {
		t.Errorf("loads = %v, want [4 4]", loads)
	}
	if _, err := DegreeLoads(g.Degrees(), Assignment{Workers: 2, Owner: []int32{0}}); err == nil {
		t.Error("mismatched assignment accepted")
	}
}

// TestMonteCarloBatchAllocs pins the allocations of one batched kernel call
// over a 64-point worker axis: a fixed set per call plus one loads buffer,
// one sums buffer and one goroutine per extra trial shard. The count does
// not depend on the vertex count.
func TestMonteCarloBatchAllocs(t *testing.T) {
	defer core.SetParallelism(0)
	degrees, err := graph.ScaledDNSGraph(10000).Degrees(1)
	if err != nil {
		t.Fatal(err)
	}
	workers := core.Range(1, 64)
	for _, tc := range []struct {
		parallelism int
		pin         float64
	}{{1, 17}, {3, 23}} {
		core.SetParallelism(tc.parallelism)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, workers, 3, 7); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.pin {
			t.Errorf("parallelism %d: batched kernel allocated %.0f objects per call, pinned at %.0f",
				tc.parallelism, allocs, tc.pin)
		}
	}
}

// exactMaxLoad enumerates all workersᵛ assignments of the degree sequence
// and returns the exact mean and standard deviation of one trial's
// MaxLoad under the uniform assignment the kernel samples.
func exactMaxLoad(degrees []int32, workers int) (mean, sigma float64) {
	var edges int64
	for _, d := range degrees {
		edges += int64(d)
	}
	dup := DupCorrection(len(degrees), edges/2, workers)
	owner := make([]int, len(degrees))
	loads := make([]int64, workers)
	// each calls f with the MaxLoad of every assignment, odometer order.
	each := func(f func(x float64)) {
		clear(owner)
		for {
			clear(loads)
			for v, d := range degrees {
				loads[owner[v]] += int64(d)
			}
			f(MaxLoad(loads, dup))
			v := 0
			for ; v < len(owner) && owner[v] == workers-1; v++ {
				owner[v] = 0
			}
			if v == len(owner) {
				return
			}
			owner[v]++
		}
	}
	total := math.Pow(float64(workers), float64(len(degrees)))
	sum := 0.0
	each(func(x float64) { sum += x })
	mean = sum / total
	squares := 0.0
	each(func(x float64) { squares += (x - mean) * (x - mean) })
	return mean, math.Sqrt(squares / total)
}

// TestMonteCarloMatchesExactOracle checks the estimator against ground
// truth: on graphs small enough to enumerate every assignment, the
// 10,000-trial estimate lies within 4σ/√10,000 of the exact mean for seeds
// 1–5, and is exact on one worker, where every trial is the same.
func TestMonteCarloMatchesExactOracle(t *testing.T) {
	const trials = 10000
	for _, g := range []struct {
		name    string
		degrees []int32
	}{
		{"path of 8", []int32{1, 2, 2, 2, 2, 2, 2, 1}},
		{"star of 9", []int32{8, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"mixed 10", []int32{4, 3, 3, 2, 2, 2, 2, 2, 1, 1}},
	} {
		for workers := 1; workers <= 4; workers++ {
			mean, sigma := exactMaxLoad(g.degrees, workers)
			tol := 4 * sigma / math.Sqrt(trials)
			for seed := int64(1); seed <= 5; seed++ {
				est, err := MonteCarloMaxEdges(g.degrees, workers, trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 && est.MaxEdges != mean {
					t.Errorf("%s, 1 worker, seed %d: estimate %v, exact %v", g.name, seed, est.MaxEdges, mean)
				}
				if diff := math.Abs(est.MaxEdges - mean); diff > tol {
					t.Errorf("%s, %d workers, seed %d: estimate %v, exact mean %v (σ %v): off by %.2fσ/√trials",
						g.name, workers, seed, est.MaxEdges, mean, sigma, diff/(sigma/math.Sqrt(trials)))
				}
			}
		}
	}
}
