package scenario

import (
	"fmt"
	"math"

	"dmlscale/internal/registry"
	"dmlscale/internal/units"
)

// MaxStreamCells bounds suite grids. Consumers (the suite evaluator, the
// planner) hold one cell at a time, so the guard only has to stop genuinely
// absurd grids, not production-scale ones.
const MaxStreamCells = 262144

// Cell is one lazily-indexed grid point of a suite: the scenario itself plus
// the numeric axis coordinates that produced it, which the planner's
// refinement pass re-subdivides. Index is stable across runs — cell i of a
// suite is always the same scenario.
type Cell struct {
	// Index is the cell's position in the suite's cell order: the explicit
	// scenarios first, then the sweep grid in axis-nesting order
	// (protocols ▹ hardware ▹ bandwidths ▹ precisions ▹ max workers).
	Index int
	// Model identifies the model the cell prices, in [0, CellSet.Models()).
	// Cells with equal ids describe the same model and differ at most in
	// their worker bound and name, so the curve of one over 1..N is a
	// prefix of the curve of another over a larger bound. An explicit
	// scenario has an id of its own; a grid cell's id is its grid index
	// with the max-workers coordinate, the innermost axis, dropped.
	Model int
	// Scenario is the materialized grid point.
	Scenario Scenario
	// SweptBandwidth is the bandwidth-axis value stamped into this cell;
	// 0 means the axis was absent or kept the base protocol's own rate.
	SweptBandwidth float64
	// SweptMaxWorkers is the worker-axis value stamped into this cell;
	// 0 means the axis was absent or kept the base bound.
	SweptMaxWorkers int
}

// axisLabels pairs one sweep axis's raw values with their rendered name
// segments, disambiguated so equal-formatting values cannot collide.
type sweepGrid struct {
	base Scenario

	protocols  []string
	hardware   []string
	bandwidths []float64
	precisions []float64
	maxWorkers []int

	protocolLabels  []string
	hardwareLabels  []string
	bandwidthLabels []string
	precisionLabels []string
	workerLabels    []string

	total int
}

// grid validates the sweep's axes against MaxStreamCells and pre-renders
// every axis label once, so cells can be materialized individually in
// O(axes) with no per-cell formatting. The incremental product check fires
// before any per-cell work, so an absurd grid errors without allocating it;
// it also keeps the product from overflowing.
func (sw Sweep) grid() (*sweepGrid, error) {
	g := &sweepGrid{
		base:       sw.Base,
		protocols:  orDefault(sw.Protocols, ""),
		hardware:   orDefault(sw.Hardware, ""),
		bandwidths: orDefault(sw.BandwidthsBitsPerSec, 0),
		precisions: orDefault(sw.PrecisionsBits, 0),
		maxWorkers: orDefault(sw.MaxWorkers, 0),
	}
	g.total = 1
	for _, n := range []int{len(g.protocols), len(g.hardware), len(g.bandwidths), len(g.precisions), len(g.maxWorkers)} {
		g.total *= n
		if g.total > MaxStreamCells {
			return nil, fmt.Errorf("scenario: sweep expands to at least %d scenarios, cap is %d", g.total, MaxStreamCells)
		}
	}
	for _, h := range g.hardware {
		if h == "" {
			continue
		}
		if _, err := registry.PresetNode(h); err != nil {
			return nil, fmt.Errorf("scenario: sweep hardware axis: %w", err)
		}
	}
	g.protocolLabels = disambiguate(labelStrings(g.protocols))
	g.hardwareLabels = disambiguate(labelStrings(g.hardware))
	g.bandwidthLabels = disambiguate(labelFloats(g.bandwidths, func(b float64) string {
		return units.BitsPerSecond(b).String()
	}))
	g.precisionLabels = disambiguate(labelFloats(g.precisions, func(p float64) string {
		return fmt.Sprintf("%g-bit", p)
	}))
	g.workerLabels = disambiguate(labelInts(g.maxWorkers, func(n int) string {
		return fmt.Sprintf("≤%d workers", n)
	}))
	return g, nil
}

// orDefault substitutes the one-element keep-the-base axis for an absent one.
func orDefault[T comparable](axis []T, keep T) []T {
	if len(axis) == 0 {
		return []T{keep}
	}
	return axis
}

// labelStrings renders a string axis: the value itself, empty for keep-base.
func labelStrings(values []string) []string {
	out := make([]string, len(values))
	copy(out, values)
	return out
}

// labelFloats renders a numeric axis, keep-base zeros staying unlabeled.
func labelFloats(values []float64, format func(float64) string) []string {
	out := make([]string, len(values))
	for i, v := range values {
		if v != 0 {
			out[i] = format(v)
		}
	}
	return out
}

// labelInts renders an integer axis, keep-base zeros staying unlabeled.
func labelInts(values []int, format func(int) string) []string {
	out := make([]string, len(values))
	for i, v := range values {
		if v != 0 {
			out[i] = format(v)
		}
	}
	return out
}

// disambiguate makes an axis's rendered labels unique: any label that occurs
// more than once — distinct values formatting identically, like bandwidths
// 1e9 and 1e9+1 both printing "1 Gbit/s" — gets a deterministic 1-based
// ordinal suffix on every occurrence, so grid-point names cannot collide.
// Unique labels pass through untouched, keeping existing suite names stable.
func disambiguate(labels []string) []string {
	count := make(map[string]int, len(labels))
	for _, l := range labels {
		count[l]++
	}
	seen := make(map[string]int, len(labels))
	out := make([]string, len(labels))
	for i, l := range labels {
		if count[l] < 2 {
			out[i] = l
			continue
		}
		seen[l]++
		if l == "" {
			out[i] = fmt.Sprintf("#%d", seen[l])
			continue
		}
		out[i] = fmt.Sprintf("%s #%d", l, seen[l])
	}
	return out
}

// cell materializes grid point i by odometer decomposition of the index —
// protocols outermost, max workers innermost — so indices and names are
// stable across runs.
func (g *sweepGrid) cell(i int) Cell {
	rest := i
	maxN := g.maxWorkers[rest%len(g.maxWorkers)]
	wLabel := g.workerLabels[rest%len(g.maxWorkers)]
	rest /= len(g.maxWorkers)
	prec := g.precisions[rest%len(g.precisions)]
	pLabel := g.precisionLabels[rest%len(g.precisions)]
	rest /= len(g.precisions)
	b := g.bandwidths[rest%len(g.bandwidths)]
	bLabel := g.bandwidthLabels[rest%len(g.bandwidths)]
	rest /= len(g.bandwidths)
	hw := g.hardware[rest%len(g.hardware)]
	hLabel := g.hardwareLabels[rest%len(g.hardware)]
	rest /= len(g.hardware)
	kind := g.protocols[rest]
	kLabel := g.protocolLabels[rest]

	s := g.base
	name := s.Name
	if kind != "" {
		if kind != s.Protocol.Kind {
			// A different kind starts from a fresh spec carrying only the
			// bandwidth (on a composite base that lives in the leaf
			// children): the base's chunks/waves/latency belong to its own
			// kind.
			s.Protocol = ProtocolSpec{Kind: kind, BandwidthBitsPerSec: firstBandwidth(s.Protocol)}
		}
		name += ", " + kLabel
	}
	if hw != "" {
		// The axis names node presets; a custom base node is replaced whole.
		s.Hardware = HardwareSpec{Preset: hw}
		name += ", " + hLabel
	}
	if b != 0 {
		s.Protocol = withBandwidth(s.Protocol, b)
		name += ", " + bLabel
	}
	if prec != 0 {
		s.Workload.PrecisionBits = prec
		name += ", " + pLabel
	}
	if maxN != 0 {
		s.MaxWorkers = maxN
		name += ", " + wLabel
	}
	s.Name = name
	return Cell{Scenario: s, SweptBandwidth: b, SweptMaxWorkers: maxN}
}

// CellSet is a validated, lazily-indexable view of a suite's cells: the
// explicit scenarios followed by the sweep grid. It materializes nothing up
// front — At builds one cell in O(axes) — so consumers can walk large grids
// without holding them.
type CellSet struct {
	explicit []Scenario
	grid     *sweepGrid
	override int // suite-level MaxWorkers, applied to grid cells at access
	total    int
	gridMaxN int // the largest resolved worker bound of any grid cell
}

// Cells is the suite's one enumerator: it validates the suite — name,
// emptiness, objective, worker-bound conflict, explicit duplicate names —
// and returns its lazy cell view, capped at MaxStreamCells. Sweep-generated
// names are unique by construction (see disambiguate), so only the explicit
// list needs a duplicate scan.
func (s Suite) Cells() (*CellSet, error) {
	if err := s.validateShape(); err != nil {
		return nil, err
	}
	cs := &CellSet{override: s.MaxWorkers}
	if len(s.Scenarios) > 0 {
		cs.explicit = make([]Scenario, len(s.Scenarios))
		copy(cs.explicit, s.Scenarios)
		if s.MaxWorkers > 0 {
			for i := range cs.explicit {
				cs.explicit[i].MaxWorkers = s.MaxWorkers
			}
		}
		seen := make(map[string]bool, len(cs.explicit))
		for _, sc := range cs.explicit {
			if seen[sc.Name] {
				return nil, fmt.Errorf("scenario: suite %q: duplicate scenario name %q", s.Name, sc.Name)
			}
			seen[sc.Name] = true
		}
	}
	cs.total = len(cs.explicit)
	if s.Sweep != nil {
		g, err := s.Sweep.grid()
		if err != nil {
			return nil, fmt.Errorf("scenario: suite %q: %w", s.Name, err)
		}
		if cs.total+g.total > MaxStreamCells {
			return nil, fmt.Errorf("scenario: suite %q expands to %d scenarios, cap is %d", s.Name, cs.total+g.total, MaxStreamCells)
		}
		cs.grid = g
		cs.total += g.total
		for _, w := range g.maxWorkers {
			cs.gridMaxN = max(cs.gridMaxN, cs.cellMaxN(w))
		}
	}
	return cs, nil
}

// validateShape holds the suite-level checks of Cells.
func (s Suite) validateShape() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: suite: missing name")
	}
	if len(s.Scenarios) == 0 && s.Sweep == nil {
		return fmt.Errorf("scenario: suite %q: no scenarios and no sweep", s.Name)
	}
	if s.Objective != "" && !validObjective(s.Objective) {
		return fmt.Errorf("scenario: suite %q: unknown objective %q (known: %s)",
			s.Name, s.Objective, joinedObjectives())
	}
	if s.MaxWorkers > 0 && s.Sweep != nil && len(s.Sweep.MaxWorkers) > 0 {
		// Applying the suite-level bound over a swept worker axis would
		// rewrite every grid point to the same bound — duplicate curves
		// under labels claiming different ones. Refuse the ambiguity.
		return fmt.Errorf("scenario: suite %q: max_workers conflicts with the sweep's max_workers axis", s.Name)
	}
	return nil
}

// Len returns the number of cells the suite declares.
func (cs *CellSet) Len() int {
	return cs.total
}

// At materializes cell i. The suite-level worker override is stamped here,
// so explicit and grid cells carry the same bound.
func (cs *CellSet) At(i int) Cell {
	if i < len(cs.explicit) {
		return Cell{Index: i, Model: i, Scenario: cs.explicit[i]}
	}
	g := i - len(cs.explicit)
	c := cs.grid.cell(g)
	c.Index = i
	c.Model = len(cs.explicit) + g/len(cs.grid.maxWorkers)
	if cs.override > 0 {
		c.Scenario.MaxWorkers = cs.override
	}
	return c
}

// Models returns how many model ids the cells carry (see Cell.Model).
func (cs *CellSet) Models() int {
	n := len(cs.explicit)
	if cs.grid != nil {
		n += cs.grid.total / len(cs.grid.maxWorkers)
	}
	return n
}

// ModelMaxN returns the largest resolved worker bound (Scenario.MaxN) of
// any cell of model id.
func (cs *CellSet) ModelMaxN(id int) int {
	if id < len(cs.explicit) {
		return cs.explicit[id].MaxN()
	}
	return cs.gridMaxN
}

// Points returns the number of curve points the cells price: the sum of
// every cell's MaxN, saturating at math.MaxInt. It costs one step per
// explicit scenario and per worker-axis value, not one per cell, so a
// server can bound a suite's work before planning or sweeping it.
func (cs *CellSet) Points() int {
	total := 0
	for _, sc := range cs.explicit {
		total = satAdd(total, sc.MaxN())
	}
	if cs.grid != nil {
		perValue := cs.grid.total / len(cs.grid.maxWorkers)
		for _, w := range cs.grid.maxWorkers {
			total = satAdd(total, satMul(perValue, cs.cellMaxN(w)))
		}
	}
	return total
}

// cellMaxN resolves the worker bound of the grid cells whose max-workers
// coordinate is w, as At stamps it.
func (cs *CellSet) cellMaxN(w int) int {
	sc := cs.grid.base
	if w != 0 {
		sc.MaxWorkers = w
	}
	if cs.override > 0 {
		sc.MaxWorkers = cs.override
	}
	return sc.MaxN()
}

// satAdd and satMul add and multiply non-negative ints, saturating at
// math.MaxInt.
func satAdd(a, b int) int {
	if b > math.MaxInt-a {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// Next returns a sequential pull iterator over the cells; the returned
// closure is not safe for concurrent use. Both verbs index cells with At
// instead; Next stays only because the benchmark module compiles against
// it.
func (cs *CellSet) Next() func() (Cell, bool) {
	i := 0
	return func() (Cell, bool) {
		if i >= cs.total {
			return Cell{}, false
		}
		c := cs.At(i)
		i++
		return c, true
	}
}

// RefineBandwidth returns a copy of sc re-priced at bandwidth b and renamed
// with a refinement label — the planner's frontier refinement synthesizes
// off-grid cells with it. The label renders the exact value (shortest
// round-trip float), so refined names are unique per distinct bandwidth even
// where the human-friendly unit formatting would round two apart.
func RefineBandwidth(sc Scenario, b float64) Scenario {
	sc.Protocol = withBandwidth(sc.Protocol, b)
	sc.Name = fmt.Sprintf("%s » %g bit/s", sc.Name, b)
	return sc
}

// RefineMaxWorkers returns a copy of sc with the worker bound replaced and a
// refinement label appended; see RefineBandwidth.
func RefineMaxWorkers(sc Scenario, n int) Scenario {
	sc.MaxWorkers = n
	sc.Name = fmt.Sprintf("%s » ≤%d workers", sc.Name, n)
	return sc
}
