package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/registry"
)

// Suite declares many scenarios at once: an explicit list, a parameter
// sweep expanded from a base scenario, or both. One suite file drives a
// whole comparison study — the "as many scenarios as you can imagine"
// direction of the roadmap.
type Suite struct {
	// Name labels the suite in reports.
	Name string `json:"name"`
	// Scenarios are evaluated as given.
	Scenarios []Scenario `json:"scenarios,omitempty"`
	// Sweep expands a base scenario over a parameter grid.
	Sweep *Sweep `json:"sweep,omitempty"`
	// MaxWorkers overrides every scenario's evaluation bound; 0 keeps
	// each scenario's own.
	MaxWorkers int `json:"max_workers,omitempty"`
	// Objective names how the planner ranks this suite's scenarios:
	// "tta" (time-to-accuracy, the default), "cost" (cheapest run) or
	// "pareto" (cost×time frontier first). Per-iteration evaluation
	// ignores it; Objectives lists the options.
	Objective string `json:"objective,omitempty"`
}

// Objectives lists the planner ranking objectives a suite may name, in
// stable order. The planner's objective parser accepts exactly these.
func Objectives() []string {
	return []string{"cost", "pareto", "tta"}
}

// Sweep is a parameter grid over a base scenario: the cross product of the
// listed bandwidths, protocol kinds, precisions and worker ranges, each axis
// defaulting to the base's own value when empty.
type Sweep struct {
	// Base is the scenario every grid point starts from.
	Base Scenario `json:"base"`
	// BandwidthsBitsPerSec sweeps the link bandwidth.
	BandwidthsBitsPerSec []float64 `json:"bandwidths_bits_per_sec,omitempty"`
	// Protocols sweeps the protocol kind (leaf kinds; the bandwidth axis
	// applies to each).
	Protocols []string `json:"protocols,omitempty"`
	// Hardware sweeps the node preset (an empty string keeps the base's
	// own node).
	Hardware []string `json:"hardware,omitempty"`
	// PrecisionsBits sweeps the shipped-parameter width.
	PrecisionsBits []float64 `json:"precisions_bits,omitempty"`
	// MaxWorkers sweeps the evaluation bound.
	MaxWorkers []int `json:"max_workers,omitempty"`
}

// firstBandwidth returns the spec's own bandwidth — resolving a network
// preset to its cataloged rate — or, for composite specs that carry none
// themselves, the first positive bandwidth among the inner leaves.
func firstBandwidth(p ProtocolSpec) float64 {
	if p.BandwidthBitsPerSec > 0 {
		return p.BandwidthBitsPerSec
	}
	if p.Network != "" {
		if nw, err := registry.PresetNetwork(p.Network); err == nil {
			return float64(nw.Bandwidth)
		}
	}
	for _, inner := range p.Of {
		if b := firstBandwidth(inner); b > 0 {
			return b
		}
	}
	return 0
}

// withBandwidth returns a copy of the protocol spec with the bandwidth set,
// recursing into composite kinds so a sweep can re-price a composed
// protocol. A named network preset is dropped — the axis re-prices the link,
// and keeping the preset would be the raw-bandwidth-plus-preset conflict the
// registry rejects. The Of slice is cloned, never written through: the base
// scenario's spec is shared by every grid point.
func withBandwidth(p ProtocolSpec, b float64) ProtocolSpec {
	p.BandwidthBitsPerSec = b
	p.Network = ""
	if len(p.Of) > 0 {
		of := make([]ProtocolSpec, len(p.Of))
		for i := range p.Of {
			of[i] = withBandwidth(p.Of[i], b)
		}
		p.Of = of
	}
	return p
}

// validObjective reports whether name is a cataloged planner objective.
func validObjective(name string) bool {
	return slices.Contains(Objectives(), name)
}

// joinedObjectives renders the objective catalog for error messages.
func joinedObjectives() string {
	return strings.Join(Objectives(), ", ")
}

// Result is one evaluated suite entry. Err carries a per-scenario failure;
// the rest of the suite still evaluates.
type Result struct {
	// Scenario is the expanded scenario this result belongs to.
	Scenario Scenario
	// Curve holds the sampled speedups when Err is nil.
	Curve core.Curve
	// OptimalN is argmax s(n) over the curve; PeakSpeedup is s there.
	OptimalN    int
	PeakSpeedup float64
	// Err records why this scenario failed.
	Err error
}

// EvalStats summarizes one suite-evaluation pass: how many cells the suite
// expanded to, how they ended, and where the evaluated wall time went
// (summed across cells, so under parallel evaluation the two durations add
// up to more than the elapsed time).
type EvalStats struct {
	// Scenarios is the number of cells: Evaluated + Failed + Cancelled,
	// plus ResumedCells on sweeps and Pruned on plans.
	Scenarios int
	// Evaluated counts cells that built and sampled their own model
	// successfully.
	Evaluated int
	// CurvesDeduped is always 0: every cell evaluates its own model, and
	// the process-wide kernel cache already shares the one expensive
	// input, the Monte-Carlo estimate. The field stays only because the
	// benchmark module compiles against it.
	CurvesDeduped int
	// Failed counts cells whose evaluation errored. Cancelled cells are
	// counted separately.
	Failed int
	// Cancelled counts cells abandoned because the evaluation context was
	// cancelled or its deadline expired (their Result.Err wraps the context
	// error).
	Cancelled int
	// BuildTime is the summed model-construction time (catalog resolution,
	// graph generation); SampleTime is the summed curve-sampling time
	// (Monte-Carlo estimation, time evaluation).
	BuildTime  time.Duration
	SampleTime time.Duration
	// Pruned counts cells skipped without evaluation because even their
	// optimistic cost×time bound was dominated by the forming Pareto
	// frontier, or fell outside the run's budget constraints. Always 0 for
	// plain evaluation passes; the adaptive planner fills it.
	Pruned int
	// Refined counts cells synthesized by frontier refinement — off-grid
	// subdivisions of the numeric axes next to frontier cells — and
	// RefineRounds the refinement rounds that produced them.
	Refined      int
	RefineRounds int
	// PlanTime is the summed per-cell planning time (model construction,
	// curve pricing, optimum search). Always 0 for plain evaluation
	// passes; the planner fills it.
	PlanTime time.Duration
	// BoundTime is the wall time of the adaptive planner's bound pass —
	// computing every cell's optimistic cost×time bound plus the prune
	// bookkeeping against the forming frontier. 0 outside adaptive plans.
	BoundTime time.Duration
	// RefineTime is the wall time of the adaptive planner's frontier
	// refinement rounds. 0 outside adaptive plans.
	RefineTime time.Duration
	// ResumedCells counts cells replayed from a checkpoint journal instead
	// of evaluated — the work a resumed run did not repeat. Always 0
	// without a checkpoint.
	ResumedCells int
	// KernelComputeTime is how much of the pass went into actually
	// computing Monte-Carlo kernels (cache misses; hits cost nothing),
	// measured as the registry accumulator's delta across the pass. It
	// overlaps BuildTime/SampleTime/PlanTime — it attributes them, it does
	// not add to them. Concurrent passes in one process (a busy server)
	// make the delta approximate.
	KernelComputeTime time.Duration
	// SlowestCells are the top few cells by wall time, descending — where
	// an extended -stats report points first. Total is always set; Build
	// and Sample split it only on evaluation passes (the planner does not
	// split per-cell time).
	SlowestCells []CellTiming
}

// CellTiming attributes one cell's wall time for top-k reporting.
type CellTiming struct {
	// Name is the cell's scenario name.
	Name string
	// Total is the cell's whole wall time.
	Total time.Duration
	// Build and Sample split Total on evaluation passes; both are zero
	// when the pass does not split per-cell time (adaptive planning).
	Build  time.Duration
	Sample time.Duration
}

// maxSlowestCells bounds EvalStats.SlowestCells.
const maxSlowestCells = 5

// RecordCellTiming inserts one cell's timing into the descending top-k
// list, dropping it if it is too fast to rank. Shared by the suite
// evaluator and the planner so both report the same shape.
func RecordCellTiming(top []CellTiming, ct CellTiming) []CellTiming {
	if ct.Total <= 0 {
		return top
	}
	i := len(top)
	for i > 0 && top[i-1].Total < ct.Total {
		i--
	}
	if i >= maxSlowestCells {
		return top
	}
	top = append(top, CellTiming{})
	copy(top[i+1:], top[i:])
	top[i] = ct
	if len(top) > maxSlowestCells {
		top = top[:maxSlowestCells]
	}
	return top
}

// EvaluateSuiteStatsCtx is EvaluateSuiteCheckpointCtx without a checkpoint.
func EvaluateSuiteStatsCtx(ctx context.Context, s Suite, parallelism int) ([]Result, EvalStats, error) {
	return EvaluateSuiteCheckpointCtx(ctx, s, parallelism, nil)
}

// Checkpoint lets a suite evaluation replay completed cells from a prior
// (crashed) run and persist newly completed ones as they finish. Lookup and
// Save both run concurrently from evaluation workers and must synchronize
// internally.
type Checkpoint interface {
	// Lookup returns the journaled record for the cell at index (whose
	// expanded name is name), if one exists. Implementations must only
	// return records journaled under the same index AND name — the pair
	// is what makes replay safe against a changed suite.
	Lookup(index int, name string) (ResultRecord, bool)
	// Save journals one successfully completed cell. Errors are the
	// implementation's to surface (typically on its own Close).
	Save(index int, name string, rec ResultRecord)
}

// EvaluateSuiteCheckpointCtx computes every curve of the suite concurrently
// on the shared parallelism budget (core.SetParallelism, default
// GOMAXPROCS), plus the pass's evaluation stats; parallelism caps the
// suite-level workers within that budget, ≤ 0 meaning no extra cap. Scenario
// errors isolate: a bad grid point yields a Result with Err set and the rest
// of the suite completes.
//
// Cells fan out through core.ForEachCtx, the planner's fan-out too: each
// worker materializes one cell at a time (CellSet.At), so grids up to
// MaxStreamCells evaluate in one pass without the cell list ever being held
// whole, and results are bit-identical at any parallelism.
//
// Cancellation yields deterministic partial results: every cell still gets
// exactly one Result — cells evaluated before ctx fired are bit-identical to
// an uncancelled run's, the rest carry an error wrapping ctx.Err() and count
// in EvalStats.Cancelled — and the suite-level error is ctx's, so callers
// can distinguish "suite invalid" from "run abandoned" while still rendering
// what completed.
//
// With a non-nil cp, cells Lookup finds are replayed as finished results —
// never re-evaluated, counted in EvalStats.ResumedCells, cancelled run or
// not — and every newly successful cell is handed to Save, so a later resume
// skips it too. Replayed results are bit-identical to what the original run
// computed (the journal stores full curves, and every model is
// deterministic), so an interrupted-then-resumed run merges to the same
// bytes as an uninterrupted one.
func EvaluateSuiteCheckpointCtx(ctx context.Context, s Suite, parallelism int, cp Checkpoint) ([]Result, EvalStats, error) {
	cs, err := s.Cells()
	if err != nil {
		return nil, EvalStats{}, err
	}
	n := cs.Len()
	ctx, span := obs.Start(ctx, "suite")
	span.SetString("suite", s.Name)
	span.SetInt("cells", int64(n))
	defer span.End()
	kernelBefore := registry.KernelComputeTime()
	results := make([]Result, n)
	evaluated := make([]core.JobResult, n)
	var resumed []bool
	if cp != nil {
		resumed = make([]bool, n)
	}
	// replay serves cell i from the journal when cp holds a successful
	// record of it.
	replay := func(i int, sc Scenario) bool {
		if cp == nil {
			return false
		}
		rec, ok := cp.Lookup(i, sc.Name)
		if !ok || rec.Error != "" {
			return false
		}
		results[i] = resultFromRecord(sc, rec)
		resumed[i] = true
		return true
	}
	ran := core.ForEachCtx(ctx, n, parallelism, func(i int) {
		sc := cs.At(i).Scenario
		if replay(i, sc) {
			return
		}
		ev := core.EvaluateOne(ctx, core.Job{Name: sc.Name, BuildCtx: sc.ModelCtx, Workers: sc.Workers()})
		evaluated[i] = ev
		results[i] = Result{Scenario: sc, Curve: ev.Curve, Err: ev.Err}
		if ev.Err != nil {
			return
		}
		if peak, ok := ev.Curve.Peak(); ok {
			results[i].OptimalN = peak.N
			results[i].PeakSpeedup = peak.Speedup
		}
		if cp != nil {
			cp.Save(i, sc.Name, recordOne(results[i]))
		}
	})
	// ctx fired before the cells past the prefix were reached: journaled
	// ones still replay, the rest are cancelled.
	for i := ran; i < n; i++ {
		sc := cs.At(i).Scenario
		if !replay(i, sc) {
			evaluated[i] = core.CancelledResult(sc.Name, ctx.Err())
			results[i] = Result{Scenario: sc, Err: evaluated[i].Err}
		}
	}
	stats := EvalStats{Scenarios: n}
	for i, ev := range evaluated {
		if resumed != nil && resumed[i] {
			stats.ResumedCells++
			continue
		}
		switch {
		case ev.IsCancelled():
			stats.Cancelled++
		case ev.Err != nil:
			stats.Failed++
		default:
			stats.Evaluated++
		}
		stats.BuildTime += ev.BuildTime
		stats.SampleTime += ev.SampleTime
		stats.SlowestCells = RecordCellTiming(stats.SlowestCells, CellTiming{
			Name:   ev.Name,
			Total:  ev.BuildTime + ev.SampleTime,
			Build:  ev.BuildTime,
			Sample: ev.SampleTime,
		})
	}
	stats.KernelComputeTime = registry.KernelComputeTime() - kernelBefore
	return results, stats, ctx.Err()
}

// DecodeSuite reads a suite from JSON. A file holding a single scenario is
// accepted too and wrapped as a one-entry suite, so every scenario file is
// also a suite file.
func DecodeSuite(r io.Reader) (Suite, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Suite{}, fmt.Errorf("scenario: suite: %w", err)
	}
	var probe struct {
		Scenarios []json.RawMessage `json:"scenarios"`
		Sweep     json.RawMessage   `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return Suite{}, fmt.Errorf("scenario: suite: decode: %w", err)
	}
	if len(probe.Scenarios) == 0 && probe.Sweep == nil {
		var sc Scenario
		dec := newStrictDecoder(raw)
		if err := dec.Decode(&sc); err != nil {
			return Suite{}, fmt.Errorf("scenario: suite: decode: %w", err)
		}
		return Suite{Name: sc.Name, Scenarios: []Scenario{sc}}, nil
	}
	var s Suite
	dec := newStrictDecoder(raw)
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("scenario: suite: decode: %w", err)
	}
	// Validate through the lazy view: loading a suite must not expand its
	// grid.
	if _, err := s.Cells(); err != nil {
		return Suite{}, err
	}
	return s, nil
}

// newStrictDecoder decodes from bytes rejecting unknown fields.
func newStrictDecoder(raw []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec
}

// EncodeSuite writes the suite as indented JSON.
func (s Suite) Encode(w io.Writer) error {
	return writeIndented(w, s)
}

// LoadSuite reads a suite (or single-scenario) file.
func LoadSuite(path string) (Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return Suite{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return DecodeSuite(f)
}
