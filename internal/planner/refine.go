package planner

import (
	"context"
	"math"
	"sort"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/scenario"
)

// minRefineRatio is the smallest relative gap a bandwidth subdivision may
// close: neighbors within a factor 1+1e-6 of each other are already
// indistinguishable to the models and would only mint duplicate cells.
const minRefineRatio = 1 + 1e-6

// refineFrontier runs up to opts.RefineRounds rounds of multi-axis grid
// refinement: each round finds the cells currently on the cost×time
// frontier, inserts new sweep values adjacent to them on the numeric axes —
// the geometric midpoint of neighboring bandwidths, the arithmetic midpoint
// of neighboring worker bounds — and plans the resulting off-grid cells
// under the same bound-and-prune regime as the coarse pass. Where the
// declared grid stepped over a better configuration, the subdivision closes
// in on it.
//
// plans and cells are position-aligned; both grow by the accepted candidates
// and the extended slices are returned via plans. Rounds stop early when the
// frontier generates no new candidates (every neighbor gap is already below
// the resolution floor, or all candidates duplicate existing cells).
//
// A worker-bound candidate prices a prefix of its parent's model curve in
// curves. A bandwidth candidate is a new model, one per (parent model,
// bandwidth): candidates of parents that differ only in their worker bound
// share it.
func refineFrontier(ctx context.Context, plans []Plan, cells []scenario.Cell, curves *curveStore, parallelism int, opts Options, stats *scenario.EvalStats) []Plan {
	// held answers whether the pass already holds a candidate's model, so
	// adjacent frontier cells proposing the same midpoint — or a midpoint
	// that lands on a declared cell — cannot plan the same model twice.
	held := newHeldCells(cells)
	type refinedModel struct {
		parent    int
		bandwidth float64
	}
	bandwidthModels := make(map[refinedModel]int)

	for round := 0; round < opts.RefineRounds; round++ {
		if ctx.Err() != nil {
			// Refinement only adds optional off-grid candidates; a cancelled
			// run keeps the plans it has instead of minting cancelled stubs.
			return plans
		}
		roundStart := time.Now()
		rctx, rspan := obs.Start(ctx, "refine-round")
		rspan.SetInt("round", int64(round+1))
		endRound := func(candidates int) {
			rspan.SetInt("candidates", int64(candidates))
			rspan.End()
			stats.RefineTime += time.Since(roundStart)
		}
		// Flagging here is safe: the suite's final markPareto sets every
		// eligible plan's flag again, refined plans included.
		markPareto(plans)
		var members []int
		for i := range plans {
			if frontierEligible(&plans[i]) && plans[i].Pareto {
				members = append(members, i)
			}
		}

		// The neighbor lists span every cell in the pass — declared and
		// refined — so each round halves the local gap instead of
		// re-proposing the same midpoint.
		bwVals, wVals := axisValues(cells)

		var cand []scenario.Cell
		for _, i := range members {
			c := cells[i]
			if v := c.SweptBandwidth; v > 0 {
				prev, next := neighborsFloat(bwVals, v)
				for _, m := range []float64{geomMid(prev, v), geomMid(v, next)} {
					if m <= 0 {
						continue
					}
					nc := c
					nc.Scenario = scenario.RefineBandwidth(c.Scenario, m)
					nc.SweptBandwidth = m
					if !held.add(nc) {
						continue
					}
					key := refinedModel{c.Model, m}
					id, ok := bandwidthModels[key]
					if !ok {
						id = curves.add(curves.model(c.Model).bound)
						bandwidthModels[key] = id
					}
					nc.Model = id
					cand = append(cand, nc)
				}
			}
			if w := c.SweptMaxWorkers; w > 0 {
				prev, next := neighborsInt(wVals, w)
				for _, m := range []int{intMid(prev, w), intMid(w, next)} {
					if m <= 0 {
						continue
					}
					nc := c
					nc.Scenario = scenario.RefineMaxWorkers(c.Scenario, m)
					nc.SweptMaxWorkers = m
					if held.add(nc) {
						cand = append(cand, nc)
					}
				}
			}
		}
		if len(cand) == 0 {
			endRound(0)
			return plans
		}

		// Candidates face the full current frontier from the start, so a
		// midpoint that cannot beat the coarse pass is pruned as cheaply
		// as any declared cell.
		coarse := func() *Frontier {
			var f Frontier
			for _, i := range members {
				f.Insert(float64(plans[i].Optimal.Time), plans[i].Optimal.Cost)
			}
			return &f
		}
		frontier := coarse()
		bounds := make([]cellBound, len(cand))
		newPlans := make([]Plan, len(cand))
		ran := core.ForEachCtx(rctx, len(cand), parallelism, func(k int) {
			// Each frontier-adjacent probe plans through scenario.ModelCtx,
			// which hints the candidate's full worker axis to the kernel —
			// so an off-grid cell whose graph coordinates match a frontier
			// cell reuses its batch-filled estimates outright, and a cell
			// with fresh coordinates pays one batched pass, not MaxN.
			bounds[k] = boundFor(cand[k].Scenario)
			newPlans[k] = planCell(rctx, cand[k], bounds[k], curves, frontier, opts)
		})
		for k := ran; k < len(cand); k++ {
			newPlans[k] = cancelledPlan(cand[k].Scenario, ctx.Err())
		}
		stats.Pruned += settlePrunes(newPlans, cand, bounds, core.Range(0, ran-1), coarse(), opts)
		for k := range newPlans {
			newPlans[k].Refined = true
		}
		plans = append(plans, newPlans...)
		cells = append(cells, cand...)
		stats.Refined += len(cand)
		stats.RefineRounds++
		endRound(len(cand))
	}
	return plans
}

// axisValues collects the distinct swept values of the two numeric axes
// across every cell, sorted ascending.
func axisValues(cells []scenario.Cell) (bw []float64, w []int) {
	bwSet := make(map[float64]bool)
	wSet := make(map[int]bool)
	for _, c := range cells {
		if c.SweptBandwidth > 0 {
			bwSet[c.SweptBandwidth] = true
		}
		if c.SweptMaxWorkers > 0 {
			wSet[c.SweptMaxWorkers] = true
		}
	}
	for v := range bwSet {
		bw = append(bw, v)
	}
	for v := range wSet {
		w = append(w, v)
	}
	sort.Float64s(bw)
	sort.Ints(w)
	return bw, w
}

// neighborsFloat returns the axis values straddling v; 0 means no neighbor
// on that side.
func neighborsFloat(vals []float64, v float64) (prev, next float64) {
	i := sort.SearchFloat64s(vals, v)
	if i > 0 {
		prev = vals[i-1]
	}
	for i < len(vals) && vals[i] <= v {
		i++
	}
	if i < len(vals) {
		next = vals[i]
	}
	return prev, next
}

// neighborsInt is neighborsFloat for the integer worker axis.
func neighborsInt(vals []int, v int) (prev, next int) {
	i := sort.SearchInts(vals, v)
	if i > 0 {
		prev = vals[i-1]
	}
	for i < len(vals) && vals[i] <= v {
		i++
	}
	if i < len(vals) {
		next = vals[i]
	}
	return prev, next
}

// geomMid returns the geometric midpoint of a bandwidth gap — the natural
// split for a log-scaled axis — or 0 when the gap is missing a side or too
// narrow to split.
func geomMid(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 || hi < lo*minRefineRatio*minRefineRatio {
		return 0
	}
	m := math.Sqrt(lo * hi)
	if m < lo*minRefineRatio || hi < m*minRefineRatio {
		return 0
	}
	return m
}

// intMid returns the midpoint of a worker-bound gap, or 0 when the gap has
// no interior integer.
func intMid(lo, hi int) int {
	if lo <= 0 || hi <= 0 || hi-lo < 2 {
		return 0
	}
	return lo + (hi-lo)/2
}

// heldCells is refinement's duplicate check: a candidate is skipped when a
// held cell or an earlier candidate has its Scenario.EvalKey. That key is a
// JSON encoding, so held cells are keyed lazily: each waits in a bucket of
// fields the key encodes, and is keyed only once a candidate lands in its
// bucket. Equal keys imply equal buckets, so the check is exact.
type heldCells struct {
	cells []scenario.Cell
	// seen holds the keys of the held cells keyed so far and of every
	// accepted candidate.
	seen map[string]bool
	// waiting maps a bucket to its held cells not keyed yet.
	waiting map[cellBucket][]int32
}

// cellBucket is heldCells' cheap necessary key: EvalKey encodes every one
// of its fields. A candidate copies a cell that planned, so its names are
// catalog names, and a held cell's name encodes like the candidate's only
// when the two are equal.
type cellBucket struct {
	maxN                 int
	kind, preset         string
	bandwidth, precision float64
}

func bucketOf(sc scenario.Scenario) cellBucket {
	return cellBucket{
		maxN:      sc.MaxN(),
		kind:      sc.Protocol.Kind,
		preset:    sc.Hardware.Preset,
		bandwidth: sc.Protocol.BandwidthBitsPerSec,
		precision: sc.Workload.PrecisionBits,
	}
}

// newHeldCells buckets the cells a pass holds; cells must not change while
// the check is in use.
func newHeldCells(cells []scenario.Cell) *heldCells {
	h := &heldCells{cells: cells, seen: make(map[string]bool), waiting: make(map[cellBucket][]int32, len(cells))}
	for i := range cells {
		b := bucketOf(cells[i].Scenario)
		h.waiting[b] = append(h.waiting[b], int32(i))
	}
	return h
}

// add reports whether candidate c is new, and records it if so.
func (h *heldCells) add(c scenario.Cell) bool {
	k := c.Scenario.EvalKey()
	if k == "" {
		// An unresolvable scenario is never a duplicate: it reports its
		// own error.
		return true
	}
	b := bucketOf(c.Scenario)
	for _, i := range h.waiting[b] {
		if hk := h.cells[i].Scenario.EvalKey(); hk != "" {
			h.seen[hk] = true
		}
	}
	delete(h.waiting, b)
	if h.seen[k] {
		return false
	}
	h.seen[k] = true
	return true
}
