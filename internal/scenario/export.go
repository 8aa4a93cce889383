package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dmlscale/internal/core"
	"dmlscale/internal/units"
)

// ResultRecord is the flat, serializable form of one suite Result — the
// machine-readable export deployment tools consume instead of the ASCII
// tables.
type ResultRecord struct {
	// Scenario echoes the expanded scenario's name.
	Scenario string `json:"scenario"`
	// Family is the canonical workload family, when it resolves.
	Family string `json:"family,omitempty"`
	// OptimalWorkers and PeakSpeedup summarize the curve.
	OptimalWorkers int     `json:"optimal_workers,omitempty"`
	PeakSpeedup    float64 `json:"peak_speedup,omitempty"`
	// Workers, TimesSeconds and Speedups are the curve, position-aligned.
	Workers      []int     `json:"workers,omitempty"`
	TimesSeconds []float64 `json:"times_seconds,omitempty"`
	Speedups     []float64 `json:"speedups,omitempty"`
	// Error carries a per-scenario failure; the numeric fields are then
	// empty.
	Error string `json:"error,omitempty"`
}

// SuiteReport is the JSON document WriteResultsJSON emits: the suite name
// plus one record per evaluated scenario, in suite order.
type SuiteReport struct {
	Suite   string         `json:"suite"`
	Results []ResultRecord `json:"results"`
}

// Records flattens evaluated suite results into serializable records.
func Records(results []Result) []ResultRecord {
	out := make([]ResultRecord, len(results))
	for i, res := range results {
		out[i] = recordOne(res)
	}
	return out
}

// recordOne flattens one suite Result into its serializable record — the
// shape the export writers and the checkpoint journal both store, so a
// journaled cell replays to exactly the bytes the original run would have
// exported.
func recordOne(res Result) ResultRecord {
	rec := ResultRecord{Scenario: res.Scenario.Name}
	if family, err := res.Scenario.Family(); err == nil {
		rec.Family = family
	}
	if res.Err != nil {
		rec.Error = res.Err.Error()
		return rec
	}
	rec.OptimalWorkers = res.OptimalN
	rec.PeakSpeedup = res.PeakSpeedup
	rec.Workers = res.Curve.Workers()
	rec.TimesSeconds = res.Curve.Times()
	rec.Speedups = res.Curve.Speedups()
	return rec
}

// resultFromRecord rebuilds a successful Result from its journaled record
// — the replay half of the checkpoint round-trip. Export of the rebuilt
// result is byte-identical to export of the original: the record stores
// the full curve at full float precision (encoding/json round-trips
// float64 exactly), and the scenario comes from the suite's own expansion.
func resultFromRecord(sc Scenario, rec ResultRecord) Result {
	points := make([]core.Point, len(rec.Workers))
	for i, n := range rec.Workers {
		points[i] = core.Point{N: n}
		if i < len(rec.Speedups) {
			points[i].Speedup = rec.Speedups[i]
		}
		if i < len(rec.TimesSeconds) {
			points[i].Time = units.Seconds(rec.TimesSeconds[i])
		}
	}
	return Result{
		Scenario:    sc,
		Curve:       core.Curve{Name: sc.Name, Points: points},
		OptimalN:    rec.OptimalWorkers,
		PeakSpeedup: rec.PeakSpeedup,
	}
}

// WriteResultsJSON writes the suite's evaluated results as one indented JSON
// document (SuiteReport).
func WriteResultsJSON(w io.Writer, suiteName string, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SuiteReport{Suite: suiteName, Results: Records(results)})
}

// PlanRecord is the flat, serializable form of one planner recommendation —
// the machine-readable counterpart of dmls-plan's ranked table. The planner
// fills it; this package only defines the export shape so every on-disk
// format the module emits lives in one place.
type PlanRecord struct {
	// Rank is the 1-based position under the report's objective.
	Rank int `json:"rank,omitempty"`
	// Scenario echoes the expanded scenario's name.
	Scenario string `json:"scenario"`
	// Family is the canonical workload family, when it resolves.
	Family string `json:"family,omitempty"`
	// ConvergenceAware is true when the plan optimizes time-to-accuracy;
	// false means the scenario had no convergence block (or its family has
	// no iteration notion) and the plan fell back to per-iteration
	// ranking, explained in Notice.
	ConvergenceAware bool `json:"convergence_aware"`
	// Rule echoes the convergence rule of a convergence-aware plan.
	Rule string `json:"rule,omitempty"`
	// OptimalWorkers is the recommended cluster size.
	OptimalWorkers int `json:"optimal_workers,omitempty"`
	// IterationsToAccuracy is the predicted iteration count at the
	// optimum (convergence-aware plans only).
	IterationsToAccuracy float64 `json:"iterations_to_accuracy,omitempty"`
	// TimeSeconds is the predicted time at the optimum: time-to-accuracy
	// for convergence-aware plans, per-iteration time otherwise.
	TimeSeconds float64 `json:"time_seconds,omitempty"`
	// CostRatePerNodeHour is the node's cost rate; Cost is workers ×
	// hours × rate at the optimum. Zero rate means the node is unpriced.
	CostRatePerNodeHour float64 `json:"cost_rate_per_node_hour,omitempty"`
	Cost                float64 `json:"cost,omitempty"`
	// Pareto marks plans on the suite's cost×time frontier.
	Pareto bool `json:"pareto,omitempty"`
	// Pruned marks cells the adaptive planner skipped without evaluation;
	// BoundTimeSeconds/BoundCost then carry the optimistic bound that got
	// them pruned, and the curve fields are empty.
	Pruned           bool    `json:"pruned,omitempty"`
	BoundTimeSeconds float64 `json:"bound_time_seconds,omitempty"`
	BoundCost        float64 `json:"bound_cost,omitempty"`
	// Refined marks plans synthesized by frontier refinement — off-grid
	// subdivisions of a numeric sweep axis — rather than declared.
	Refined bool `json:"refined,omitempty"`
	// Infeasible marks plans with no configuration inside the run's
	// cost/time budget; the exported optimum is then the unconstrained one.
	Infeasible bool `json:"infeasible,omitempty"`
	// Notice explains a fallback or degenerate plan in one line.
	Notice string `json:"notice,omitempty"`
	// Workers, TimesSeconds, Iterations and Costs are the plan's full
	// curve, position-aligned.
	Workers      []int     `json:"workers,omitempty"`
	TimesSeconds []float64 `json:"times_seconds,omitempty"`
	Iterations   []float64 `json:"iterations,omitempty"`
	Costs        []float64 `json:"costs,omitempty"`
	// Error carries a per-scenario failure; the numeric fields are then
	// empty.
	Error string `json:"error,omitempty"`
}

// PlanReport is the JSON document WritePlansJSON emits: suite name,
// objective, and one record per scenario in rank order.
type PlanReport struct {
	Suite     string       `json:"suite"`
	Objective string       `json:"objective"`
	Plans     []PlanRecord `json:"plans"`
}

// WritePlansJSON writes a planner report as one indented JSON document.
func WritePlansJSON(w io.Writer, report PlanReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// WritePlansCSV writes one row per plan, in rank order:
//
//	rank,scenario,family,convergence_aware,rule,optimal_workers,iterations_to_accuracy,time_seconds,cost_rate_per_node_hour,cost,pareto,pruned,refined,infeasible,notice,error
//
// A failed scenario contributes a row with the numeric columns empty and the
// error in the last column; a pruned cell carries its optimistic bound in
// the time and cost columns. The full curves are JSON-only: the CSV is the
// ranked recommendation table.
func WritePlansCSV(w io.Writer, plans []PlanRecord) error {
	cw := csv.NewWriter(w)
	header := []string{"rank", "scenario", "family", "convergence_aware", "rule", "optimal_workers",
		"iterations_to_accuracy", "time_seconds", "cost_rate_per_node_hour", "cost", "pareto",
		"pruned", "refined", "infeasible", "notice", "error"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("scenario: plan csv: %w", err)
	}
	for _, rec := range plans {
		if rec.Error != "" {
			row := []string{strconv.Itoa(rec.Rank), rec.Scenario, rec.Family, "", "", "", "", "", "", "", "", "", "", "", rec.Notice, rec.Error}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("scenario: plan csv: %w", err)
			}
			continue
		}
		timeSec, cost := rec.TimeSeconds, rec.Cost
		if rec.Pruned {
			timeSec, cost = rec.BoundTimeSeconds, rec.BoundCost
		}
		row := []string{
			strconv.Itoa(rec.Rank),
			rec.Scenario,
			rec.Family,
			strconv.FormatBool(rec.ConvergenceAware),
			rec.Rule,
			strconv.Itoa(rec.OptimalWorkers),
			strconv.FormatFloat(rec.IterationsToAccuracy, 'g', -1, 64),
			strconv.FormatFloat(timeSec, 'g', -1, 64),
			strconv.FormatFloat(rec.CostRatePerNodeHour, 'g', -1, 64),
			strconv.FormatFloat(cost, 'g', -1, 64),
			strconv.FormatBool(rec.Pareto),
			strconv.FormatBool(rec.Pruned),
			strconv.FormatBool(rec.Refined),
			strconv.FormatBool(rec.Infeasible),
			rec.Notice,
			"",
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("scenario: plan csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("scenario: plan csv: %w", err)
	}
	return nil
}

// WriteResultsCSV writes the results in long form, one row per curve point:
//
//	scenario,family,workers,time_seconds,speedup,optimal_workers,peak_speedup,error
//
// A failed scenario contributes a single row with the numeric columns empty
// and the error in the last column, so a consumer can tell "failed" from
// "absent".
func WriteResultsCSV(w io.Writer, results []Result) error {
	cw := csv.NewWriter(w)
	header := []string{"scenario", "family", "workers", "time_seconds", "speedup", "optimal_workers", "peak_speedup", "error"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("scenario: csv: %w", err)
	}
	for _, rec := range Records(results) {
		if rec.Error != "" {
			if err := cw.Write([]string{rec.Scenario, rec.Family, "", "", "", "", "", rec.Error}); err != nil {
				return fmt.Errorf("scenario: csv: %w", err)
			}
			continue
		}
		for i, n := range rec.Workers {
			row := []string{
				rec.Scenario,
				rec.Family,
				strconv.Itoa(n),
				strconv.FormatFloat(rec.TimesSeconds[i], 'g', -1, 64),
				strconv.FormatFloat(rec.Speedups[i], 'g', -1, 64),
				strconv.Itoa(rec.OptimalWorkers),
				strconv.FormatFloat(rec.PeakSpeedup, 'g', -1, 64),
				"",
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("scenario: csv: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("scenario: csv: %w", err)
	}
	return nil
}
