package planner

import (
	"sync"

	"dmlscale/internal/scenario"
)

// curveStore holds one planning pass's priced curves, one per model
// (scenario.Cell.Model). The paper prices each worker count on its own, so
// a cell's curve over 1..N is a prefix of its model's curve over any larger
// bound: the cells of one model read prefixes of one array instead of each
// pricing its own.
type curveStore struct {
	models []modelCurve
}

// modelCurve is one model's priced curve. len(pts) is how many points are
// priced; the array is allocated on the model's first priced cell with room
// for bound points, the largest bound any of the model's cells can have.
type modelCurve struct {
	// mu serializes the fills of a curve that concurrent cells share. A
	// one-cell pass (PlanScenario) shares its curve with no one and leaves
	// it nil, which keeps its curve off the heap.
	mu    *sync.Mutex
	bound int
	pts   []Point
}

// newCurveStore returns the store for the cells of cs, one empty curve per
// model id.
func newCurveStore(cs *scenario.CellSet) *curveStore {
	n := cs.Models()
	locks := make([]sync.Mutex, n)
	s := &curveStore{models: make([]modelCurve, n)}
	for id := range s.models {
		s.models[id] = modelCurve{mu: &locks[id], bound: cs.ModelMaxN(id)}
	}
	return s
}

// model returns the curve of model id. The pointer is good until the next
// add.
func (s *curveStore) model(id int) *modelCurve {
	return &s.models[id]
}

// add registers a model that no declared cell carries, whose cells have
// worker bounds up to bound, and returns its id. Refinement calls it
// between planning phases, when no cell holds a model's curve.
func (s *curveStore) add(bound int) int {
	s.models = append(s.models, modelCurve{mu: new(sync.Mutex), bound: bound})
	return len(s.models) - 1
}

// priced returns how many curve points the pass priced, over every model.
func (s *curveStore) priced() int {
	n := 0
	for i := range s.models {
		n += len(s.models[i].pts)
	}
	return n
}

// prefix returns the model's curve over 1..n, read-only, pricing the points
// no cell has priced yet with at. The priced length advances only once a
// fill completes: at may panic (a graph-family kernel surfaces cancellation
// that way, and planOne recovers it), and a partial prefix must never reach
// another cell. The lock is held across at, so two cells never price one
// point; at never reaches the store, so no cycle of locks can form.
func (m *modelCurve) prefix(n int, at func(n int) Point) []Point {
	if m.mu != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	if n > cap(m.pts) {
		m.pts = append(make([]Point, 0, max(n, m.bound)), m.pts...)
	}
	if priced := len(m.pts); n > priced {
		pts := m.pts[:n]
		for i := priced; i < n; i++ {
			pts[i] = at(i + 1)
		}
		m.pts = pts
	}
	return m.pts[:n:n]
}
