package planner

import (
	"sort"
	"sync"
)

// Frontier is an incremental cost×time Pareto frontier, safe for concurrent
// use: plan workers insert their optima under a small lock as cells
// complete, and ask — before evaluating a cell — whether even its
// optimistic bound is already strictly dominated.
//
// Pruning on strict domination of a lower bound is what keeps the adaptive
// search exact: the bound is ≤ the cell's true optimum on both axes, so a
// frontier point strictly below the bound is strictly below every
// configuration the cell could produce — the cell can neither join the
// final frontier nor knock another cell off it (anything it would dominate,
// the strictly-better frontier point dominates too, by transitivity).
// Equality never prunes, so co-optimal cells all survive, exactly as the
// exhaustive markPareto keeps them. The resulting frontier is therefore
// identical to the exhaustive one regardless of insertion order. Which
// cells get pruned (rather than evaluated and dominated) does depend on it;
// the planner settles those decisions on a serial pass's (settlePrunes), so
// its report does not vary with parallelism.
type Frontier struct {
	mu sync.Mutex
	// pts is sorted by time strictly ascending with cost strictly
	// descending: only mutually non-dominated points are kept, which is
	// both the minimal state for domination queries and a binary-search-
	// friendly shape.
	pts []frontierPoint
}

type frontierPoint struct {
	time, cost float64
}

// Insert offers a completed cell's optimum to the frontier. Points
// dominated by (or equal to) an existing point are dropped; points the
// newcomer dominates are evicted.
func (f *Frontier) Insert(t, c float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// pos: first index with time ≥ t.
	pos := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].time >= t })
	// The point before pos has the smallest cost among all times < t; if
	// it is not costlier than the newcomer, the newcomer adds no
	// domination power.
	if pos > 0 && f.pts[pos-1].cost <= c {
		return
	}
	if pos < len(f.pts) && f.pts[pos].time == t && f.pts[pos].cost <= c {
		return
	}
	// Points from pos on have time ≥ t; those with cost ≥ c are dominated
	// by the newcomer and form a contiguous run (cost is descending).
	end := pos
	for end < len(f.pts) && f.pts[end].cost >= c {
		end++
	}
	f.pts = append(f.pts[:pos], append([]frontierPoint{{t, c}}, f.pts[end:]...)...)
}

// DominatesStrictly reports whether some frontier point is strictly better
// than (t, c) on both axes — the only verdict that may prune, per the
// invariant above.
func (f *Frontier) DominatesStrictly(t, c float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	pos := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].time >= t })
	return pos > 0 && f.pts[pos-1].cost < c
}

// Len returns the current frontier size.
func (f *Frontier) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pts)
}
