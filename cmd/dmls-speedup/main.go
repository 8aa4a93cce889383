// Command dmls-speedup is the paper's back-of-the-envelope calculator: given
// an algorithm's complexity figures and the hardware spec, it prints the
// speedup curve, the communication/computation crossover and the optimal
// worker count.
//
// Flags assemble a scenario and hand it to the registry-driven engine — the
// same path JSON scenario files and the experiment harness use. A -config
// file replaces the flags entirely; for whole suites and parameter sweeps
// see dmls-sweep.
//
// Example (the paper's Fig. 2 workload):
//
//	dmls-speedup -flops-per-example 72e6 -batch 60000 -params 12e6 \
//	  -precision 64 -peak-flops 105.6e9 -efficiency 0.8 \
//	  -bandwidth 1e9 -protocol spark -max 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dmlscale/internal/asciiplot"
	"dmlscale/internal/core"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/textio"
)

func main() {
	var (
		configPath      = flag.String("config", "", "JSON scenario file (overrides the other flags)")
		emitConfig      = flag.Bool("emit-config", false, "print the paper's Fig. 2 setup as a scenario file and exit")
		family          = flag.String("family", "gd-strong", "workload family: "+strings.Join(registry.Families(), ", "))
		flopsPerExample = flag.Float64("flops-per-example", 6*12e6, "C: training flops per example")
		batch           = flag.Float64("batch", 60000, "S: batch size")
		params          = flag.Float64("params", 12e6, "W: model parameter count")
		precision       = flag.Float64("precision", 64, "bits per shipped parameter")
		architecture    = flag.String("architecture", "", "derive C and W from a cataloged network: "+strings.Join(registry.Architectures(), ", "))
		hwPreset        = flag.String("hardware", "", "hardware preset ("+strings.Join(registry.NodePresets(), ", ")+"); overrides -peak-flops")
		peakFlops       = flag.Float64("peak-flops", 105.6e9, "node peak flops")
		efficiency      = flag.Float64("efficiency", 0.8, "achievable fraction of peak")
		bandwidth       = flag.Float64("bandwidth", 1e9, "network bandwidth, bit/s")
		protocol        = flag.String("protocol", "spark", "communication protocol: "+strings.Join(registry.LeafProtocolKinds(), ", ")+" (composed protocols need -config)")
		maxN            = flag.Int("max", 16, "largest worker count to evaluate")
		parallelism     = flag.Int("parallel", 0, "parallelism budget for curve sampling and Monte-Carlo trials; 0 means GOMAXPROCS, 1 forces serial")
	)
	flag.Parse()
	if *parallelism > 0 {
		core.SetParallelism(*parallelism)
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dmls-speedup: %v\n", err)
		os.Exit(1)
	}

	if *emitConfig {
		if err := scenario.Fig2().Encode(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	var sc scenario.Scenario
	if *configPath != "" {
		var err error
		sc, err = scenario.Load(*configPath)
		if err != nil {
			fail(err)
		}
		if sc.MaxWorkers > 0 {
			*maxN = sc.MaxWorkers
		}
		fmt.Printf("scenario: %s\n\n", sc.Name)
	} else {
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		sc = scenario.Scenario{
			Name: "workload",
			Workload: scenario.WorkloadSpec{
				Family:          *family,
				Architecture:    *architecture,
				FlopsPerExample: *flopsPerExample,
				BatchSize:       *batch,
				Parameters:      *params,
				PrecisionBits:   *precision,
			},
			Hardware:   scenario.HardwareSpec{Preset: *hwPreset, PeakFlops: *peakFlops, Efficiency: *efficiency, Name: "custom node"},
			Protocol:   scenario.ProtocolSpec{Kind: *protocol, BandwidthBitsPerSec: *bandwidth},
			MaxWorkers: *maxN,
		}
		if *architecture != "" {
			// Let the catalog fill the counted figures — but only where
			// the user didn't pass an explicit value; the flag defaults
			// are placeholders, explicit flags win over the catalog.
			if !explicit["flops-per-example"] {
				sc.Workload.FlopsPerExample = 0
			}
			if !explicit["params"] {
				sc.Workload.Parameters = 0
			}
		}
	}

	model, err := sc.Model()
	if err != nil {
		fail(err)
	}

	workers := core.Range(1, *maxN)
	curve, err := model.SpeedupCurve(workers)
	if err != nil {
		fail(err)
	}
	table := textio.NewTable("workers", "t_cp (s)", "t_cm (s)", "t (s)", "speedup", "efficiency")
	for _, pt := range curve.Points {
		commTime := 0.0
		if model.Communication != nil {
			commTime = float64(model.Communication(pt.N))
		}
		table.AddRow(pt.N,
			float64(model.Computation(pt.N)),
			commTime,
			float64(pt.Time), pt.Speedup, pt.Speedup/float64(pt.N))
	}
	fmt.Println(table.String())

	plot, err := asciiplot.CurvePlot("speedup", []string{model.Name},
		[][]int{workers}, [][]float64{curve.Speedups()}, 60, 14)
	if err == nil {
		fmt.Println(plot)
	}

	optN, optS, err := model.OptimalWorkers(*maxN)
	if err != nil {
		fail(err)
	}
	fmt.Printf("optimal workers: %d (speedup %.2f)\n", optN, optS)
	if n, ok := model.CommComputeCrossover(*maxN); ok {
		fmt.Printf("communication exceeds computation from %d workers\n", n)
	} else {
		fmt.Printf("computation dominates through %d workers\n", *maxN)
	}
	scalable, err := model.IsScalable(*maxN)
	if err != nil {
		fail(err)
	}
	fmt.Printf("scalable (s(k) > 1 for some k ≤ %d): %v\n", *maxN, scalable)
}
