// Command benchcmp compares two results files dmlsbench wrote — runs of the
// parent commit and of a change, with identical benchmark code and
// settings — workload by workload and metric by metric.
//
//	benchcmp [-benchmark BENCHMARK.json] [-traced] parent.json change.json
//
// For each metric it prints both sides' median and quartiles over their
// runs, the change's relative difference with a 95% bootstrap interval,
// how many of the paired runs the change won, and a verdict:
//
//	better      the change won at least 9 of every 10 of at least 10 pairs
//	            (the i-th parent run pairs with the i-th change run; ties
//	            count for neither), and the medians differ by more than the
//	            parent's interquartile range
//	worse       the change's median is worse than the parent's by more than
//	            the metric's bound in BENCHMARK.json
//	unresolved  either side's spread (IQR over median) exceeds the bound, so
//	            a difference within it cannot be told from noise — unless
//	            every change run beats every parent run
//	same        none of the above
//
// Per-layer metrics (-traced compares the traced runs) have no bound, so
// they are only ever better or "-". The exit status is 1 when any metric
// is worse.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding each metric's bound")
	traced := fs.Bool("traced", false, "compare the traced runs' per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp [-benchmark BENCHMARK.json] [-traced] parent.json change.json")
		return 2
	}
	spec, err := results.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcmp: %v\n", err)
		return 1
	}
	var sides [2]results.File
	for i, path := range fs.Args() {
		if sides[i], err = results.Load(path); err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 1
		}
	}
	metrics := spec.EndToEnd
	if *traced {
		metrics = spec.PerLayer
	}
	worse := false
	fmt.Fprintf(stdout, "%-16s %-30s %-30s %-30s %8s %-19s %6s %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "95% CI", "wins", "verdict")
	for _, wl := range workloads(sides[0], sides[1]) {
		parentRuns, changeRuns := runsOf(sides[0], wl, *traced), runsOf(sides[1], wl, *traced)
		for _, m := range metrics {
			p, c := values(parentRuns, m.Name), values(changeRuns, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := compare(p, c, m.Better, m.Bound)
			worse = worse || r.verdict == "worse"
			fmt.Fprintf(stdout, "%-16s %-30s %-30s %-30s %+7.2f%% [%+7.2f%% %+7.2f%%] %2d/%-3d %s\n",
				wl, m.Name, summary(p), summary(c), 100*r.delta, 100*r.lo, 100*r.hi, r.wins, r.pairs, r.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// workloads lists the workloads both files ran, in the parent's order.
func workloads(parent, change results.File) []string {
	var out []string
	for _, r := range parent.Runs {
		if !slices.Contains(out, r.Workload) && slices.ContainsFunc(change.Runs, func(c results.Run) bool { return c.Workload == r.Workload }) {
			out = append(out, r.Workload)
		}
	}
	return out
}

// runsOf returns a file's runs of one workload and phase, in run order.
func runsOf(f results.File, workload string, traced bool) []results.Run {
	var out []results.Run
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// values returns each run's value of a metric, skipping runs without it.
func values(runs []results.Run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, m, q3 := stats.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", m, q1, q3)
}

// comparison is one metric's verdict and the numbers behind it.
type comparison struct {
	delta, lo, hi float64 // change median relative to the parent's, and its 95% interval
	wins, pairs   int
	verdict       string
}

// minPairs and winShare are the pair rule: a gain needs at least 10 pairs
// and a win in at least 9 of every 10.
const (
	minPairs = 10
	winShare = 0.9
)

// compare applies the pair rule and the regression bound to one metric.
// better is "lower" or "higher"; bound is the share of the parent's median
// the change may lose, 0 for an ungated metric.
func compare(parent, change []float64, better string, bound float64) comparison {
	sign := 1.0 // positive when the change is better
	if better == "lower" {
		sign = -1
	}
	pq1, pm, pq3 := stats.Quartiles(parent)
	_, cm, _ := stats.Quartiles(change)
	c := comparison{delta: cm/pm - 1}
	c.lo, c.hi = stats.BootstrapRatioCI(parent, change, 2000)
	c.pairs = min(len(parent), len(change))
	for i := 0; i < c.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			c.wins++
		}
	}
	allBetter := slices.Min(change) > slices.Max(parent)
	if better == "lower" {
		allBetter = slices.Max(change) < slices.Min(parent)
	}
	switch {
	case c.pairs >= minPairs && float64(c.wins) >= winShare*float64(c.pairs) &&
		sign*(cm-pm) > 0 && math.Abs(cm-pm) > pq3-pq1:
		c.verdict = "better"
	case bound == 0:
		c.verdict = "-"
	case stats.Spread(parent) > bound || stats.Spread(change) > bound:
		if allBetter {
			c.verdict = "better"
		} else {
			c.verdict = "unresolved"
		}
	case -sign*c.delta > bound:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}
