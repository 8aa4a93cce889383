package experiments

import (
	"context"
	"fmt"
	"math"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/asyncgd"
	"dmlscale/internal/comm"
	"dmlscale/internal/convergence"
	"dmlscale/internal/gd"
	"dmlscale/internal/graph"
	"dmlscale/internal/partition"
	"dmlscale/internal/registry"
	"dmlscale/internal/textio"
	"dmlscale/internal/units"
)

func init() {
	register("abl-comm", AblationCommTopology)
	register("abl-async", AblationAsyncGD)
	register("abl-conv", AblationConvergence)
	register("abl-part", AblationPartition)
}

// AblationCommTopology compares communication protocols on the Fig. 2
// workload: the paper argues tree/torrent communication is what makes the
// Sparks et al. linear model inaccurate, and that all-reduce changes the
// optimum again.
func AblationCommTopology(opts Options) (Result, error) {
	opts = opts.withDefaults()
	w := Fig2Workload()
	node, err := registry.PresetNode("xeon-e3-1240")
	if err != nil {
		return Result{}, err
	}
	// The compared protocols, resolved by name through the one registry.
	kinds := []string{"linear", "two-stage-tree", "spark", "ring", "shuffle"}
	protocols := make([]comm.Model, len(kinds))
	for i, kind := range kinds {
		p, err := registry.Protocol(registry.ProtocolSpec{Kind: kind, BandwidthBitsPerSec: float64(units.Gbps)})
		if err != nil {
			return Result{}, err
		}
		protocols[i] = p
	}
	const maxN = 64
	table := textio.NewTable("protocol", "optimal workers", "peak speedup", "s(16)", "s(64)")
	var names []string
	var workerSets [][]int
	var speedups [][]float64
	bestPeakName := ""
	bestPeak := 0.0
	for _, p := range protocols {
		model, err := gd.Model(w, node, p)
		if err != nil {
			return Result{}, err
		}
		optN, optS, err := model.OptimalWorkers(maxN)
		if err != nil {
			return Result{}, err
		}
		table.AddRow(p.Name(), optN, optS, model.Speedup(16), model.Speedup(64))
		if optS > bestPeak {
			bestPeak, bestPeakName = optS, p.Name()
		}
		ns := []int{1, 2, 4, 8, 16, 32, 64}
		curve, err := model.SpeedupCurve(ns)
		if err != nil {
			return Result{}, err
		}
		names = append(names, p.Name())
		workerSets = append(workerSets, ns)
		speedups = append(speedups, curve.Speedups())
	}
	plot, err := asciiplot.CurvePlot("Communication-protocol ablation on the Fig. 2 workload",
		names, workerSets, speedups, 60, 16)
	if err != nil {
		return Result{}, err
	}

	linModel, err := gd.Model(w, node, protocols[0])
	if err != nil {
		return Result{}, err
	}
	treeModel, err := gd.Model(w, node, protocols[1])
	if err != nil {
		return Result{}, err
	}
	linN, linS, _ := linModel.OptimalWorkers(maxN)
	treeN, treeS, _ := treeModel.OptimalWorkers(maxN)

	return Result{
		ID:          "abl-comm",
		Title:       "Ablation — communication topology on the Fig. 2 workload",
		Description: "Same computation model, different t_cm: the linear master-worker exchange (Sparks et al.) vs trees, Spark's torrent+sqrt pattern, ring all-reduce and shuffle.",
		Table:       table,
		Plot:        plot,
		Metrics: map[string]float64{
			"linear optimum": float64(linN),
			"linear peak":    linS,
			"tree optimum":   float64(treeN),
			"tree peak":      treeS,
			"best peak":      bestPeak,
		},
		PaperComparison: []Comparison{
			{"linear vs tree communication", "linear model 'inaccurate for all-reduce' and tree protocols", fmt.Sprintf("tree peak %.1f× at n=%d vs linear %.1f× at n=%d", treeS, treeN, linS, linN)},
			{"best protocol at 64 workers", "—", bestPeakName},
		},
	}, nil
}

// AblationAsyncGD explores the paper's future-work asynchronous gradient
// descent model on the Fig. 2 workload: throughput speedup vs effective
// (time-to-accuracy) speedup under staleness.
func AblationAsyncGD(opts Options) (Result, error) {
	opts = opts.withDefaults()
	w := Fig2Workload()
	node, err := registry.PresetNode("xeon-e3-1240")
	if err != nil {
		return Result{}, err
	}
	computeTime := units.ComputeTime(w.FlopsPerExample*w.BatchSize, node.EffectiveFlops())
	commTime := units.TransferTime(w.ModelBits, units.Gbps)
	model := asyncgd.Model{
		ComputePerBatch:    computeTime,
		CommPerUpdate:      commTime,
		ConvergencePenalty: 0.05,
	}
	syncModel, err := Fig2Model()
	if err != nil {
		return Result{}, err
	}

	ns := []int{1, 2, 4, 8, 16, 32, 64}
	table := textio.NewTable("workers", "sync speedup", "async raw speedup", "staleness", "async effective speedup")
	var raw, eff, syncS []float64
	for _, n := range ns {
		table.AddRow(n, syncModel.Speedup(n), model.RawSpeedup(n), model.Staleness(n), model.EffectiveSpeedup(n))
		raw = append(raw, model.RawSpeedup(n))
		eff = append(eff, model.EffectiveSpeedup(n))
		syncS = append(syncS, syncModel.Speedup(n))
	}
	optN, optS, err := model.OptimalWorkers(256)
	if err != nil {
		return Result{}, err
	}
	plot, err := asciiplot.CurvePlot("Async GD: raw vs effective speedup (Fig. 2 workload)",
		[]string{"sync (paper model)", "async raw", "async effective"},
		[][]int{ns, ns, ns}, [][]float64{syncS, raw, eff}, 60, 14)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:          "abl-async",
		Title:       "Extension — asynchronous gradient descent model (paper future work §VI)",
		Description: "No barrier: updates pipeline behind computation, so raw throughput keeps scaling, but staleness inflates iterations-to-converge by (1 + γ·staleness), γ=0.05.",
		Table:       table,
		Plot:        plot,
		Metrics: map[string]float64{
			"async optimal workers":   float64(optN),
			"async effective peak":    optS,
			"staleness at 64 workers": model.Staleness(64),
		},
		PaperComparison: []Comparison{
			{"async GD modeling", "named future work", fmt.Sprintf("effective optimum %d workers (%.1f×)", optN, optS)},
		},
	}, nil
}

// AblationConvergence explores the parallelization-convergence trade-off on
// the Fig. 3 workload: per-iteration speedup compounds with batch-growth
// iteration rules into time-to-accuracy.
func AblationConvergence(opts Options) (Result, error) {
	opts = opts.withDefaults()
	model, err := Fig3Model()
	if err != nil {
		return Result{}, err
	}
	iterTime := func(n int) units.Seconds {
		// Per-iteration (not per-instance) time: t_instance·S·n.
		return model.Time(n) * units.Seconds(Fig3Workload().BatchSize*float64(n))
	}
	rules := []struct {
		name string
		rule convergence.IterationRule
	}{
		{"linear scaling rule", convergence.LinearScalingRule},
		{"sqrt scaling rule", convergence.SqrtScalingRule},
		{"critical batch (kc=32)", convergence.DiminishingRule(32)},
	}
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	table := textio.NewTable("workers", rules[0].name, rules[1].name, rules[2].name)
	curves := make([]*convergence.TradeoffModel, len(rules))
	for i, r := range rules {
		curves[i] = &convergence.TradeoffModel{
			Name:           r.name,
			IterationTime:  iterTime,
			BaseIterations: 10000,
			Rule:           r.rule,
		}
	}
	var speedups [][]float64
	for range rules {
		speedups = append(speedups, nil)
	}
	for _, n := range ns {
		row := make([]any, 0, len(rules)+1)
		row = append(row, n)
		for i, m := range curves {
			s := m.Speedup(n)
			row = append(row, s)
			speedups[i] = append(speedups[i], s)
		}
		table.AddRow(row...)
	}
	metricsMap := map[string]float64{}
	var comparisons []Comparison
	for i, m := range curves {
		n, s, err := m.OptimalWorkers(256)
		if err != nil {
			return Result{}, err
		}
		metricsMap[rules[i].name+" optimum"] = float64(n)
		metricsMap[rules[i].name+" peak"] = s
		comparisons = append(comparisons, Comparison{
			Quantity: rules[i].name,
			Paper:    "trade-off named as future work",
			Measured: fmt.Sprintf("time-to-accuracy optimum at %d workers (%.1f×)", n, s),
		})
	}
	plot, err := asciiplot.CurvePlot("Time-to-accuracy speedup under batch-growth rules (Fig. 3 workload)",
		[]string{rules[0].name, rules[1].name, rules[2].name},
		[][]int{ns, ns, ns}, speedups, 60, 14)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:              "abl-conv",
		Title:           "Extension — parallelization/convergence trade-off (paper future work §VI)",
		Description:     "Weak-scaled mini-batch SGD grows the effective batch with n; iteration counts shrink by a batch rule (linear, sqrt, critical-batch). Time-to-accuracy = iterations(n) × iteration time(n).",
		Table:           table,
		Plot:            plot,
		Metrics:         metricsMap,
		PaperComparison: comparisons,
	}, nil
}

// AblationPartition sets the paper's Monte-Carlo max-edges estimator beside
// the degree-sum loads (Eᵢ_rnd, intra-worker edges counted twice) of one
// random assignment of a materialized graph, and beside a
// better-than-random partitioner.
func AblationPartition(opts Options) (Result, error) {
	opts = opts.withDefaults()
	spec := graph.ScaledDNSGraph(20000)
	degrees, err := spec.Degrees(opts.Seed)
	if err != nil {
		return Result{}, err
	}
	g, err := graph.ChungLu(degrees, opts.Seed+1)
	if err != nil {
		return Result{}, err
	}
	actualDegrees := g.Degrees()

	ns := []int{2, 4, 8, 16, 32, 64}
	table := textio.NewTable("workers", "MC estimate maxEi", "exact random max load", "greedy max load", "estimate/exact")
	metricsMap := map[string]float64{}
	worstRatio, bestRatio := 0.0, math.Inf(1)
	// One batched kernel pass covers the whole worker axis.
	ests, err := partition.MonteCarloMaxEdgesBatch(context.Background(), actualDegrees, ns, opts.MonteCarloTrials, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	for ni, n := range ns {
		est := ests[ni]
		randomAssign, err := partition.Random(g.NumVertices(), n, opts.Seed+int64(n))
		if err != nil {
			return Result{}, err
		}
		exact, err := partition.DegreeLoads(actualDegrees, randomAssign)
		if err != nil {
			return Result{}, err
		}
		var exactMax int64
		for _, l := range exact {
			if l > exactMax {
				exactMax = l
			}
		}
		greedy, err := partition.GreedyByDegree(actualDegrees, n)
		if err != nil {
			return Result{}, err
		}
		greedyLoads, err := partition.DegreeLoads(actualDegrees, greedy)
		if err != nil {
			return Result{}, err
		}
		var greedyMax int64
		for _, l := range greedyLoads {
			if l > greedyMax {
				greedyMax = l
			}
		}
		ratio := est.MaxEdges / float64(exactMax)
		if ratio > worstRatio {
			worstRatio = ratio
		}
		if ratio < bestRatio {
			bestRatio = ratio
		}
		table.AddRow(n, est.MaxEdges, exactMax, greedyMax, ratio)
	}
	metricsMap["estimate/exact worst"] = worstRatio
	metricsMap["estimate/exact best"] = bestRatio

	return Result{
		ID:          "abl-part",
		Title:       "Ablation — Monte-Carlo edge-load estimator vs exact loads",
		Description: "The paper estimates maxEi from degree sums under random assignment with the E_dup correction; this run compares the estimate with exact per-worker loads on a materialized Chung-Lu graph with the same degree sequence, and with a greedy (LPT) partitioner.",
		Table:       table,
		Metrics:     metricsMap,
		PaperComparison: []Comparison{
			{"estimator bias", "conservative for few workers", fmt.Sprintf("estimate/exact within [%.2f, %.2f]", bestRatio, worstRatio)},
			{"feedback loop from experiments", "named future work", "greedy loads quantify the gap a partition-aware model would close"},
		},
	}, nil
}
