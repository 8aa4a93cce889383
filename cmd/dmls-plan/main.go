// Command dmls-plan turns evaluated scenarios into recommendations: for a
// suite (or single scenario) it composes each cell's per-iteration model
// with its convergence block into a time-to-accuracy curve, finds the
// optimal worker count, prices the run with the node's hourly cost rate,
// marks the suite's cost×time Pareto frontier and prints the cells ranked by
// the chosen objective.
//
// Usage:
//
//	dmls-plan -suite examples/suites/plan-tta.json
//	dmls-plan -suite plan.json -objective cost
//	dmls-plan -suite plan.json -format csv > plan.csv
//	dmls-plan -suite plan.json -format json | jq .plans
//	dmls-plan -emit-example > plan.json
//
// The objective is tta (time-to-accuracy, default), cost, or pareto
// (frontier first); -objective overrides the suite file's own "objective"
// field. Scenarios without a convergence block rank by per-iteration time
// after every convergence-aware cell, each carrying a notice saying so.
// -parallel sizes the shared parallelism budget; rankings are deterministic
// and bit-identical at any setting. -stats reports the process-wide cache
// counters on stderr — planner probes price their models through the same
// Monte-Carlo kernel cache the sweeps use, so a grid over one graph shows a
// high hit ratio here too.
//
// Adaptive planning:
//
//	dmls-plan -suite big-grid.json -adaptive -stats
//	dmls-plan -suite big-grid.json -adaptive -refine 3
//	dmls-plan -suite plan.json -max-cost 25 -max-time 2h
//
// -adaptive streams the grid through an incremental Pareto frontier,
// skipping cells whose optimistic cost×time bound is already dominated —
// the frontier is provably identical to the exhaustive run's, only the
// dominated interior goes unevaluated (pruned cells still appear, ranked
// last, with their bound). -refine N re-subdivides the numeric sweep axes
// (bandwidth, worker bound) next to frontier cells for up to N rounds,
// planning off-grid configurations the declared grid stepped over. -max-cost
// and -max-time constrain recommendations to a budget: cells provably over
// it are pruned, evaluated plans pick the fastest configuration inside it,
// and plans with no such configuration are marked infeasible.
//
// A failing scenario reports its error in its row while the rest of the
// suite still plans — but the process then exits 1, so scripts cannot
// mistake a partially failed pass for a clean one. -keep-going restores
// exit 0 for partial failures (a fully failed suite still exits 1).
// SIGINT/SIGTERM cancels the in-flight grid: already planned cells render,
// -stats still flushes, and the process exits 130.
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"dmlscale/internal/cli"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/textio"
)

func main() {
	cli.Main(run)
}

// run is the whole command under test: flags from args, rendering to the
// given writers, cancellation from ctx, the exit code returned instead of
// called.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	h := cli.New(cli.Command{
		Name: "dmls-plan",
		Usage: cli.Usage{
			Parallel:    "total parallelism budget shared by plan workers and intra-curve shards; 0 means GOMAXPROCS",
			Stats:       "report kernel-cache hit ratio and planning wall time on stderr",
			Trace:       "write a Chrome/Perfetto trace of the planning pass (suite→cell→kernel spans) to this file",
			EmitExample: "print an example planning suite and exit",
			Checkpoint:  "append-only journal file recording Monte-Carlo kernel estimates as they are computed; a killed pass resumes from it with -resume",
			Resume:      "replay the -checkpoint journal (validated against this suite) so already-paid-for kernel estimates are served from cache; a missing or empty journal starts fresh",
		},
		Example: exampleSuite,
		Stats:   statsReport,
		Done:    "planned",
	}, stdout, stderr)
	fs := h.Flags
	var (
		objective = fs.String("objective", "", "ranking objective: tta, cost or pareto (default: the suite's own, else tta)")
		adaptive  = fs.Bool("adaptive", false, "prune cells whose optimistic cost×time bound is already dominated (same frontier, fewer evaluations)")
		refine    = fs.Int("refine", 0, "rounds of frontier refinement: subdivide numeric sweep axes next to frontier cells")
		maxCost   = fs.Float64("max-cost", 0, "cost budget per run; recommendations are constrained to it, 0 means unconstrained")
		maxTime   = fs.Duration("max-time", 0, "wall-time budget per run (e.g. 90m, 2h); 0 means unconstrained")
		v         = &plan{curves: fs.Bool("curves", false, "print every plan's full time-to-accuracy curve (table format)")}
	)
	if code, done := h.Parse(args); done {
		return code
	}
	obj, err := planner.ParseObjective(*objective)
	if err != nil {
		return h.Fail(err)
	}
	if *objective == "" {
		obj = "" // defer to the suite's own objective
	}
	v.objective = obj
	v.opts = planner.Options{
		Prune:          *adaptive,
		RefineRounds:   *refine,
		MaxCost:        *maxCost,
		MaxTimeSeconds: maxTime.Seconds(),
	}
	return h.Run(ctx, v)
}

// plan is the dmls-plan verb: one planning pass and its renderers.
type plan struct {
	curves    *bool
	objective planner.Objective
	opts      planner.Options
	report    planner.Report
}

// Evaluate plans the suite. Plans are cheap to recompute; the kernel
// estimates behind them are not. The planning journal records only kernel
// work — opening it installed the kernel hook — so a resumed pass replans
// every cell but pays the Monte-Carlo cost once.
func (v *plan) Evaluate(ctx context.Context, s scenario.Suite, _ scenario.Checkpoint) (scenario.EvalStats, error) {
	report, st, err := planner.PlanSuiteCtx(ctx, s, v.objective, 0, v.opts)
	v.report = report
	return st, err
}

func (v *plan) Render(w io.Writer, format string) error {
	switch format {
	case "csv":
		return v.report.WriteCSV(w)
	case "json":
		return v.report.WriteJSON(w)
	}
	report := v.report
	fmt.Fprintf(w, "suite: %s (%d scenarios, objective %s)\n\n", report.Suite, len(report.Plans), report.Objective)
	fmt.Fprintln(w, planTable(report).String())
	for _, line := range notices(report) {
		fmt.Fprintln(w, line)
	}
	if *v.curves {
		for _, p := range report.Plans {
			if p.Err != nil {
				continue
			}
			fmt.Fprintf(w, "\n%s\n", p.Scenario.Name)
			header := []string{"workers", "t (s)", "cost"}
			if p.ConvergenceAware {
				header = []string{"workers", "t-to-accuracy (s)", "iterations", "cost"}
			}
			table := textio.NewTable(header...)
			for _, pt := range p.Curve {
				if p.ConvergenceAware {
					table.AddRow(pt.Workers, float64(pt.Time), pt.Iterations, pt.Cost)
				} else {
					table.AddRow(pt.Workers, float64(pt.Time), pt.Cost)
				}
			}
			fmt.Fprintln(w, table.String())
		}
	}
	return nil
}

func (v *plan) Failed() (failed, total int) {
	for _, p := range v.report.Plans {
		if p.Err != nil {
			failed++
		}
	}
	return failed, len(v.report.Plans)
}

// statsReport renders the -stats block: how many cells were planned versus
// pruned on their bound, what refinement added, how long the pass took and
// where that wall time went (bound pass, refinement rounds, per-cell
// planning, kernel compute), the slowest cells, and the process-wide cache
// counters (which, in a CLI run, cover exactly this planning pass).
func statsReport(st scenario.EvalStats, caches registry.CacheStats, elapsed time.Duration) string {
	out := fmt.Sprintf("stats: %d cells planned in %v (%d evaluated, %d pruned, %d failed",
		st.Scenarios, elapsed.Round(time.Microsecond), st.Evaluated, st.Pruned, st.Failed)
	if st.Cancelled > 0 {
		out += fmt.Sprintf(", %d cancelled", st.Cancelled)
	}
	out += ")\n"
	if st.RefineRounds > 0 {
		out += fmt.Sprintf("stats: refinement added %d cells over %d rounds\n", st.Refined, st.RefineRounds)
	}
	out += fmt.Sprintf("stats: wall split: bound %v, refine %v, cell planning %v summed, kernel compute %v\n",
		st.BoundTime.Round(time.Microsecond), st.RefineTime.Round(time.Microsecond),
		st.PlanTime.Round(time.Microsecond), st.KernelComputeTime.Round(time.Microsecond))
	out += cli.SlowestCells(st.SlowestCells)
	return out + caches.Report()
}

// planTable renders the ranked recommendations: one row per plan with its
// optimal cluster size, predicted time, cost and frontier membership.
// Pruned cells show their optimistic bound in place of an optimum; refined
// cells are off-grid subdivisions added by -refine.
func planTable(report planner.Report) *textio.Table {
	table := textio.NewTable("rank", "scenario", "workers", "time (s)", "iterations", "cost", "pareto", "status")
	for _, p := range report.Plans {
		if p.Err != nil {
			table.AddRow(p.Rank, p.Scenario.Name, "-", "-", "-", "-", "-", p.Err.Error())
			continue
		}
		if p.Pruned {
			table.AddRow(p.Rank, p.Scenario.Name, "-",
				fmt.Sprintf("≥%.4g", float64(p.Bound.Time)),
				"-",
				fmt.Sprintf("≥%.4g", p.Bound.Cost),
				"", "pruned")
			continue
		}
		iters, pareto, status := "-", "", "ok"
		if p.ConvergenceAware {
			iters = fmt.Sprintf("%.0f", p.Optimal.Iterations)
			if p.Pareto {
				pareto = "*"
			}
		} else {
			status = "per-iteration"
		}
		if p.Infeasible {
			status = "over budget"
		} else if p.Refined {
			status = "refined"
		}
		table.AddRow(p.Rank, p.Scenario.Name, p.Optimal.Workers,
			fmt.Sprintf("%.4g", float64(p.Optimal.Time)),
			iters,
			fmt.Sprintf("%.4g", p.Optimal.Cost),
			pareto, status)
	}
	return table
}

// notices collects the one-line explanations of every downgraded plan.
// Pruned cells are excluded — their status column and the -stats counter
// already say why, and an adaptive pass may prune thousands of them.
func notices(report planner.Report) []string {
	var out []string
	for _, p := range report.Plans {
		if p.Err == nil && !p.Pruned && p.Notice != "" {
			out = append(out, fmt.Sprintf("note: %s: %s", p.Scenario.Name, p.Notice))
		}
	}
	return out
}

// exampleSuite is the -emit-example payload: the Fig. 3 convolutional
// workload with a diminishing-returns convergence block, swept across
// interconnects, ranked by the cost×time frontier.
func exampleSuite() scenario.Suite {
	base := scenario.Fig3()
	base.Name = "conv ANN weak scaling"
	base.MaxWorkers = 128
	base.Convergence = &scenario.ConvergenceSpec{
		Rule:                "diminishing",
		BaseIterations:      50000,
		CriticalBatchGrowth: 32,
	}
	return scenario.Suite{
		Name:      "time-to-accuracy planning: conv ANN across interconnects",
		Objective: "pareto",
		Sweep: &scenario.Sweep{
			Base:                 base,
			BandwidthsBitsPerSec: []float64{1e9, 10e9},
			Protocols:            []string{"two-stage-tree", "ring", "pipelined-tree"},
		},
	}
}
