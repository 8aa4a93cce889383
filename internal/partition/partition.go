// Package partition assigns graph vertices to workers and estimates the
// resulting per-worker edge loads — the quantity the paper's graphical-model
// computation model is built on (§IV-B):
//
//	t_cp ∝ maxᵢ Eᵢ · c(S) / F
//
// Following the paper, the load of worker i under random assignment is
// estimated as Eᵢ = Eᵢ_rnd − E_dup, where Eᵢ_rnd sums the degrees of the
// worker's vertices (counting intra-worker edges twice) and
//
//	E_dup = ½ · (V/n − 1) · (V/n) · E / (V·(V−1)/2)
//
// corrects for the expected double counting.
package partition

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"dmlscale/internal/core"
	"dmlscale/internal/memo"
	"dmlscale/internal/obs"
)

// Assignment maps each vertex to a worker in [0, Workers).
type Assignment struct {
	Workers int
	Owner   []int32
}

// Validate reports whether the assignment is well formed.
func (a Assignment) Validate() error {
	if a.Workers < 1 {
		return fmt.Errorf("partition: %d workers", a.Workers)
	}
	for v, w := range a.Owner {
		if w < 0 || int(w) >= a.Workers {
			return fmt.Errorf("partition: vertex %d assigned to worker %d of %d", v, w, a.Workers)
		}
	}
	return nil
}

// rng is the module's inline Monte-Carlo generator: the SplitMix64 stream
// (Steele, Lea, Flood 2014). The state advances by the golden gamma and
// each output is memo.SplitMix64 of the pre-advance state — one addition
// and one avalanche finalization per draw, no interface indirection, no
// heap state, trivially seedable per trial. The kernel draws billions of
// values on a cold sweep, so the per-draw constant matters more than any
// statistical nicety beyond SplitMix64's (which passes BigCrush).
type rng uint64

// next returns the stream's next 64-bit draw and advances the state.
func (s *rng) next() uint64 {
	v := memo.SplitMix64(uint64(*s))
	*s += 0x9e3779b97f4a7c15
	return v
}

// bounded maps a uniform 64-bit draw onto [0, n) by Lemire's multiply-shift
// reduction — the high 64 bits of r·n — replacing math/rand's divide-based
// Intn on the kernel's innermost loop. The reduction keeps a bias of at
// most n/2⁶⁴, which is beyond negligible for a Monte-Carlo load estimate
// averaged over trials (worker counts are tiny against 2⁶⁴).
func bounded(r uint64, n int) int {
	hi, _ := bits.Mul64(r, uint64(n))
	return int(hi)
}

// Random assigns each vertex to a uniformly random worker — the paper's
// Monte-Carlo assignment. It draws from the same SplitMix64-plus-Lemire
// generator as the Monte-Carlo kernel, seeded by one finalization of seed,
// so standalone assignments and kernel trials share one sampling scheme.
func Random(vertices, workers int, seed int64) (Assignment, error) {
	if err := checkSizes(vertices, workers); err != nil {
		return Assignment{}, err
	}
	state := rng(memo.SplitMix64(uint64(seed)))
	owner := make([]int32, vertices)
	for v := range owner {
		owner[v] = int32(bounded(state.next(), workers))
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

// GreedyByDegree assigns vertices in decreasing-degree order, each to the
// worker with the smallest degree sum so far (longest-processing-time
// heuristic). This approximates what a real system like GraphLab achieves
// with smarter-than-random placement, and serves as the "experimental"
// partitioner in the Fig. 4 simulation.
func GreedyByDegree(degrees []int32, workers int) (Assignment, error) {
	if err := checkSizes(len(degrees), workers); err != nil {
		return Assignment{}, err
	}
	// Counting sort by degree, descending, stable in vertex id: two flat
	// arrays (per-degree counts and the sorted order) instead of a slice of
	// per-degree buckets, so sorting 100K vertices costs two allocations
	// rather than one per distinct degree.
	maxDeg := int32(0)
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	starts := make([]int32, maxDeg+1)
	for _, d := range degrees {
		starts[d]++
	}
	next := int32(0)
	for d := int(maxDeg); d >= 0; d-- {
		count := starts[d]
		starts[d] = next
		next += count
	}
	order := make([]int32, len(degrees))
	for v, d := range degrees {
		order[starts[d]] = int32(v)
		starts[d]++
	}
	owner := make([]int32, len(degrees))
	loads := make([]int64, workers)
	for _, v := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		owner[v] = int32(best)
		loads[best] += int64(degrees[v])
	}
	return Assignment{Workers: workers, Owner: owner}, nil
}

func checkSizes(vertices, workers int) error {
	if vertices < 1 {
		return fmt.Errorf("partition: %d vertices", vertices)
	}
	if workers < 1 {
		return fmt.Errorf("partition: %d workers", workers)
	}
	return nil
}

// DegreeLoads returns Eᵢ_rnd for each worker: the sum of degrees of its
// vertices. Intra-worker edges are counted twice, exactly as in the paper's
// estimator.
func DegreeLoads(degrees []int32, a Assignment) ([]int64, error) {
	if len(degrees) != len(a.Owner) {
		return nil, fmt.Errorf("partition: %d degrees vs %d assigned vertices", len(degrees), len(a.Owner))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	loads := make([]int64, a.Workers)
	for v, d := range degrees {
		loads[a.Owner[v]] += int64(d)
	}
	return loads, nil
}

// DupCorrection returns the paper's E_dup estimate of edges counted twice on
// one worker: ½·(V/n − 1)·(V/n)·E/(V(V−1)/2).
func DupCorrection(vertices int, edges int64, workers int) float64 {
	v := float64(vertices)
	e := float64(edges)
	n := float64(workers)
	perWorker := v / n
	pairDensity := e / (v * (v - 1) / 2)
	return 0.5 * (perWorker - 1) * perWorker * pairDensity
}

// MaxLoad returns the maximum of loads, each corrected by dup. Results
// below zero clamp to zero.
func MaxLoad(loads []int64, dup float64) float64 {
	maxEi := 0.0
	for _, l := range loads {
		ei := float64(l) - dup
		if ei > maxEi {
			maxEi = ei
		}
	}
	return maxEi
}

// Estimate is the Monte-Carlo estimate of maxᵢ Eᵢ.
type Estimate struct {
	// MaxEdges is the mean over trials of maxᵢ(Eᵢ_rnd − E_dup).
	MaxEdges float64
	// Trials is how many random assignments were sampled.
	Trials int
}

// TrialSeed derives the RNG state of one Monte-Carlo trial from the base
// seed and the trial index by chained SplitMix64 finalization
// (memo.SplitMix64, the module's one copy). The worker count deliberately
// does NOT enter the derivation: every worker count sees the same random
// vertex placements per trial — common random numbers — so the difference
// between two curve points measures the partition modulus, not sampling
// noise, and one RNG pass per trial can feed every requested worker count
// at once.
func TrialSeed(seed int64, trial int) uint64 {
	h := memo.SplitMix64(uint64(seed))
	return memo.SplitMix64(h ^ uint64(trial))
}

// MonteCarloMaxEdges estimates maxᵢ Eᵢ for a random assignment of the given
// degree sequence to n workers, averaging over trials seeded assignments —
// the paper's "Monte-Carlo-like simulation".
//
// Trials are sharded across the shared parallelism budget. Each trial draws
// from its own TrialSeed(seed, trial) stream and trial maxima are reduced
// in index order, so the estimate is bit-identical at any parallelism —
// and, because the stream does not depend on the worker count, bit-identical
// to the same coordinates inside any MonteCarloMaxEdgesBatch worker set.
// It is the one-element batch, run without cancellation.
func MonteCarloMaxEdges(degrees []int32, workers, trials int, seed int64) (Estimate, error) {
	ests, err := MonteCarloMaxEdgesBatch(context.Background(), degrees, []int{workers}, trials, seed)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

// MonteCarloMaxEdgesBatch estimates maxᵢ Eᵢ for every worker count in
// workerCounts over one shared set of random assignments: per trial it
// draws ONE uniform value r per vertex from the inline SplitMix64 stream
// (TrialSeed), and worker count w places that vertex on slot ⌊r·w/2⁶⁴⌋
// (Lemire multiply-shift bounded reduction). The worker counts share
// common random numbers, so curve-shape differences between adjacent
// points carry no independent sampling noise, and a |W|-point curve costs
// one O(trials·V) RNG pass instead of |W|.
//
// A batch of at most maxLaneGroup counts adds each vertex's degree once
// per count, at its multiply-shift slot (the lane loop). A larger batch
// reads every slot off exact cut cells: ⌊r·w/2⁶⁴⌋ ≥ j exactly when
// r ≥ ⌈j·2⁶⁴/w⌉, so the batch's sorted cuts ⌈j·2⁶⁴/w⌉ split [0, 2⁶⁴) into
// cells on which every w picks one fixed slot. Each vertex adds its degree
// to its draw's cell once, whatever the batch's size, and a prefix sum over
// the cells folds them into each w's slot loads. Loads are integer sums
// either way, so both loops produce the same loads, bit for bit.
//
// Estimates align with workerCounts (which need not be sorted or unique).
// Trials shard across the shared parallelism budget and trial maxima are
// reduced in index order, so every estimate is bit-identical at any
// parallelism, for any worker-count subset and order: Batch(W)[w] ==
// Batch({w})[w] == MonteCarloMaxEdges(..., w, ...). Every shard checks ctx
// between trials, so a deadline or abort interrupts the kernel in roughly
// one trial's latency; a cancelled run returns ctx's error (wrapped) and no
// estimates — a partial trial mean would be a silently different,
// seed-order-dependent statistic.
func MonteCarloMaxEdgesBatch(ctx context.Context, degrees []int32, workerCounts []int, trials int, seed int64) ([]Estimate, error) {
	if trials < 1 {
		return nil, fmt.Errorf("partition: %d trials", trials)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("partition: empty worker-count batch")
	}
	for _, w := range workerCounts {
		if err := checkSizes(len(degrees), w); err != nil {
			return nil, err
		}
	}
	var edges int64
	for _, d := range degrees {
		edges += int64(d)
	}
	edges /= 2
	// Per worker count: its dup correction and its slice [offsets[i],
	// offsets[i+1]) of the shard-local flat loads buffer — one allocation
	// for the whole batch, laid out in batch order so every pass walks it
	// forward.
	dups := make([]float64, len(workerCounts))
	offsets := make([]int, len(workerCounts)+1)
	maxWorkers := 0
	for i, w := range workerCounts {
		dups[i] = DupCorrection(len(degrees), edges, w)
		offsets[i+1] = offsets[i] + w
		maxWorkers = max(maxWorkers, w)
	}
	// Exactly one of lanes and cells is set: the lane loop's (multiplier,
	// offset) pairs, or the batch's cut-cell table.
	var lanes []lane
	var cells *cutCells
	if len(workerCounts) <= maxLaneGroup {
		lanes = make([]lane, len(workerCounts))
		for i, w := range workerCounts {
			lanes[i] = lane{w: uint64(w), off: offsets[i]}
		}
	} else {
		cells = newCutCells(workerCounts)
	}

	done := ctx.Done()
	// maxes[i*trials+trial] is worker count i's trial-th maximum; reducing
	// per worker count in trial-index order keeps every estimate
	// parallelism-independent.
	maxes := make([]float64, len(workerCounts)*trials)
	core.ParallelChunks(trials, func(lo, hi int) {
		_, shard := obs.Start(ctx, "mc-shard")
		shard.SetInt("trials", int64(hi-lo))
		shard.SetInt("batch", int64(len(workerCounts)))
		shard.SetInt("workers", int64(maxWorkers))
		shard.SetInt("cells", int64(cells.count()))
		defer shard.End()
		loads := make([]int64, offsets[len(workerCounts)])
		// sums[c+1] accumulates cell c, then holds the prefix sum of cells
		// [0, c]; sums[0] stays 0.
		sums := make([]int64, cells.count()+1)
		for trial := lo; trial < hi; trial++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			state := rng(TrialSeed(seed, trial))
			if cells == nil {
				lanePass(state, degrees, lanes, loads)
			} else {
				cells.pass(state, degrees, sums, loads)
			}
			for i := range workerCounts {
				maxes[i*trials+trial] = MaxLoad(loads[offsets[i]:offsets[i+1]], dups[i])
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: Monte-Carlo estimation cancelled: %w", err)
	}
	ests := make([]Estimate, len(workerCounts))
	for i := range workerCounts {
		total := 0.0
		for _, m := range maxes[i*trials : (i+1)*trials] {
			total += m
		}
		ests[i] = Estimate{MaxEdges: total / float64(trials), Trials: trials}
	}
	return ests, nil
}

// maxLaneGroup is the largest batch priced by the lane loop: for this few
// worker counts a multiply per count beats a cell lookup.
const maxLaneGroup = 4

// lane is one worker count in the lane loop: the multiplier and the offset
// of its loads in the flat buffer, read together in one ranged access per
// vertex.
type lane struct {
	w   uint64
	off int
}

// lanePass adds each vertex's degree into every lane's multiply-shift slot
// of the draw.
func lanePass(state rng, degrees []int32, lanes []lane, loads []int64) {
	clear(loads)
	for _, d := range degrees {
		r := state.next()
		dd := int64(d)
		for _, ln := range lanes {
			hi, _ := bits.Mul64(r, ln.w)
			loads[ln.off+int(hi)] += dd
		}
	}
}

// cutCells is a batch's exact cut-cell table, built once per call.
type cutCells struct {
	// cuts are the batch's sorted, distinct cuts ⌈j·2⁶⁴/w⌉ (0 < j < w);
	// cell c holds the draws with exactly c cuts at or below them.
	cuts []uint64
	// index[r>>shift] is the number of cuts below the first value of r's
	// bucket: where r's cell search starts.
	index []uint32
	shift uint
	// ends lines up with the batch's loads: ends[k] is one past the last
	// cell of load slot k, so the slot sums cells [ends[k−1], ends[k]),
	// starting from 0 at each worker count's first slot. Σw never nears
	// 2³¹: the loads alone would take 16 GiB per shard first.
	ends []int32
}

// newCutCells builds the table over workerCounts.
func newCutCells(workerCounts []int) *cutCells {
	t := &cutCells{}
	slots := 0
	for _, w := range workerCounts {
		slots += w
	}
	// raw holds every worker count's cuts in batch order, slot by slot.
	raw := make([]uint64, 0, slots-len(workerCounts))
	for _, w := range workerCounts {
		for j := 1; j < w; j++ {
			raw = append(raw, cut(j, w))
		}
	}
	// Counting-sort the cuts by their top bits into two to four buckets
	// per cut, so a cell search rarely passes more than one cut beyond its
	// bucket's start.
	buckets := bits.Len(uint(len(raw))) + 1
	t.shift = uint(64 - buckets)
	t.index = make([]uint32, 1<<buckets)
	for _, c := range raw {
		t.index[c>>t.shift]++
	}
	first := uint32(0)
	for b, n := range t.index {
		t.index[b] = first
		first += n
	}
	sorted := make([]uint64, len(raw))
	for _, c := range raw {
		b := c >> t.shift
		sorted[t.index[b]] = c
		t.index[b]++
	}
	// Each bucket now ends at index[b]. Sort and de-duplicate bucket by
	// bucket in place, and point index[b] at the bucket's first distinct
	// cut instead: the count of distinct cuts below the bucket.
	n, from := 0, 0
	for b, to := range t.index {
		bucket := sorted[from:to]
		slices.Sort(bucket)
		t.index[b] = uint32(n)
		for _, c := range bucket {
			if n == 0 || sorted[n-1] != c {
				sorted[n] = c
				n++
			}
		}
		from = int(to)
	}
	t.cuts = sorted[:n:n]
	// Slot j of w ends where slot j+1 begins: at the cell just past w's
	// cut j+1. The last slot ends past the last cell.
	t.ends = make([]int32, 0, slots)
	k := 0
	for _, w := range workerCounts {
		for j := 1; j < w; j++ {
			c := raw[k]
			pos := t.index[c>>t.shift]
			for t.cuts[pos] < c {
				pos++
			}
			t.ends = append(t.ends, int32(pos+1))
			k++
		}
		t.ends = append(t.ends, int32(n+1))
	}
	return t
}

// cut returns ⌈j·2⁶⁴/w⌉ for 0 < j < w: the smallest draw r whose
// multiply-shift slot ⌊r·w/2⁶⁴⌋ is at least j.
func cut(j, w int) uint64 {
	q, rem := bits.Div64(uint64(j), 0, uint64(w))
	if rem != 0 {
		q++
	}
	return q
}

// count returns the number of cells, 0 for a nil table (the lane loop).
func (t *cutCells) count() int {
	if t == nil {
		return 0
	}
	return len(t.cuts) + 1
}

// cell returns the cut cell of draw r: the number of cuts at or below it.
// The search starts at the first cut of r's bucket, and every cut below
// that bucket is below r.
func (t *cutCells) cell(r uint64) int {
	c := int(t.index[r>>t.shift])
	for c < len(t.cuts) && t.cuts[c] <= r {
		c++
	}
	return c
}

// pass adds each vertex's degree into its draw's cut cell, then folds the
// cells into every worker count's slot loads through their prefix sums.
// sums is scratch space for one entry per cell plus a leading zero.
func (t *cutCells) pass(state rng, degrees []int32, sums, loads []int64) {
	clear(sums)
	for _, d := range degrees {
		sums[t.cell(state.next())+1] += int64(d)
	}
	for c := 1; c < len(sums); c++ {
		sums[c] += sums[c-1]
	}
	prev := int64(0)
	for k, end := range t.ends {
		s := sums[end]
		loads[k] = s - prev
		prev = s
		if int(end) == len(sums)-1 {
			prev = 0 // a worker count's last slot; the next starts at 0
		}
	}
}
