// Package gpusim simulates synchronous mini-batch SGD on a GPU cluster in
// the weak-scaling regime of the paper's Fig. 3 (after Chen et al.,
// "Revisiting Distributed Synchronous SGD"): every worker holds a fixed
// batch, the effective batch grows with the worker count, and the metric is
// the time to process a single training instance.
//
// The simulator reproduces the structure of the analytic model —
// t(n) = (C·S/F + 2·(32·W/B)·log n)/n — and layers on the effects Chen et
// al. measured on the real TensorFlow/K40 testbed: compute stragglers
// (their motivation for backup workers) and per-round network latency.
package gpusim

import (
	"fmt"

	"dmlscale/internal/cluster"
	"dmlscale/internal/core"
	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

// Config describes the simulated training job.
type Config struct {
	// Parameters is W; gradients ship in 32-bit floats.
	Parameters float64
	// PrecisionBits is the width of one shipped value.
	PrecisionBits float64
	// PerWorkerBatch is S, the fixed batch each worker computes.
	PerWorkerBatch float64
	// FlopsPerExample is C for one training step on one example.
	FlopsPerExample float64
	// Node and Network describe the cluster.
	Node    hardware.Node
	Network hardware.Network
	// StepOverhead is the fixed per-step coordination cost.
	StepOverhead units.Seconds
	// StragglerSigma is the per-worker multiplicative compute noise.
	StragglerSigma float64
	// Seed drives the noise.
	Seed int64
}

// PaperFig3Config is the Chen et al. testbed as the paper models it:
// Inception v3 (W = 25·10⁶ parameters, C = 3·5·10⁹ flops per example),
// per-worker batch 128, nVidia K40 workers at 50% of peak, 1 Gbit/s links.
func PaperFig3Config() Config {
	return Config{
		Parameters:      25e6,
		PrecisionBits:   32,
		PerWorkerBatch:  128,
		FlopsPerExample: 3 * 5e9,
		Node:            hardware.NvidiaK40(),
		Network:         hardware.GigabitEthernet(),
		StepOverhead:    units.Seconds(0.05),
		StragglerSigma:  0.03,
		Seed:            2,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Parameters <= 0 || c.PrecisionBits <= 0 || c.PerWorkerBatch <= 0 || c.FlopsPerExample <= 0 {
		return fmt.Errorf("gpusim: W, precision, S and C must be positive")
	}
	if c.StepOverhead < 0 {
		return fmt.Errorf("gpusim: negative step overhead")
	}
	sub := cluster.Config{Node: c.Node, Network: c.Network, StragglerSigma: c.StragglerSigma}
	return sub.Validate()
}

// InstanceTime simulates steps synchronous SGD steps on n workers and
// returns the mean wall time per processed training instance:
// step time / (S·n).
func InstanceTime(cfg Config, n, steps int) (units.Seconds, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("gpusim: %d workers", n)
	}
	if steps < 1 {
		return 0, fmt.Errorf("gpusim: %d steps", steps)
	}
	sim, err := cluster.New(cluster.Config{
		Node:           cfg.Node,
		Network:        cfg.Network,
		StragglerSigma: cfg.StragglerSigma,
		Seed:           cfg.Seed + int64(n),
	})
	if err != nil {
		return 0, err
	}
	modelBits := units.Bits(cfg.PrecisionBits * cfg.Parameters)
	for s := 0; s < steps; s++ {
		if err := sim.Overhead(cfg.StepOverhead); err != nil {
			return 0, err
		}
		// Each worker computes its fixed batch (weak scaling).
		if _, err := sim.UniformComputePhase(cfg.FlopsPerExample*cfg.PerWorkerBatch, n); err != nil {
			return 0, err
		}
		// Two-stage gradient aggregation and parameter redistribution,
		// each a log-tree over the workers.
		if _, err := sim.TreeAllReduce(modelBits, n); err != nil {
			return 0, err
		}
		if _, err := sim.TreeAllReduce(modelBits, n); err != nil {
			return 0, err
		}
	}
	instances := cfg.PerWorkerBatch * float64(n) * float64(steps)
	return sim.Clock() / units.Seconds(instances), nil
}

// SpeedupCurve simulates the per-instance speedup relative to the base
// worker count (the paper uses 50) at the given worker counts.
func SpeedupCurve(cfg Config, base int, workers []int, steps int) (core.Curve, error) {
	if len(workers) == 0 {
		return core.Curve{}, fmt.Errorf("gpusim: no worker counts")
	}
	tBase, err := InstanceTime(cfg, base, steps)
	if err != nil {
		return core.Curve{}, err
	}
	curve := core.Curve{Name: "sync SGD simulation", Points: make([]core.Point, 0, len(workers))}
	for _, n := range workers {
		tn, err := InstanceTime(cfg, n, steps)
		if err != nil {
			return core.Curve{}, err
		}
		curve.Points = append(curve.Points, core.Point{
			N:       n,
			Time:    tn,
			Speedup: float64(tBase) / float64(tn),
		})
	}
	return curve, nil
}
