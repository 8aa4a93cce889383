// Package sparksim simulates one iteration of Spark ML's batch gradient
// descent — the workload of the paper's Fig. 2 experiment — on the
// discrete-event cluster of package cluster.
//
// The simulated iteration reproduces the protocol structure the paper
// describes for Spark: the driver torrent-broadcasts the 64-bit model to the
// workers, each worker computes the gradient over its batch shard, and the
// gradients are aggregated back in two square-root waves
// (treeAggregate). On top of the protocol the simulator adds the framework
// costs a real cluster exhibits and the analytic model deliberately omits:
// per-iteration driver bookkeeping, per-task scheduling overhead, and seeded
// compute stragglers. The resulting speedup curve plays the role of the
// paper's experimental markers.
package sparksim

import (
	"fmt"

	"dmlscale/internal/cluster"
	"dmlscale/internal/core"
	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

// Config describes the simulated Spark job.
type Config struct {
	// Parameters is W, the model parameter count.
	Parameters float64
	// PrecisionBits is the width of one shipped parameter; Spark ML uses
	// 64-bit doubles.
	PrecisionBits float64
	// BatchSize is S; Spark's batch gradient descent uses the full
	// dataset.
	BatchSize float64
	// FlopsPerExample is C, the training cost of one example (6·W for
	// dense networks).
	FlopsPerExample float64
	// Node and Network describe the cluster hardware.
	Node    hardware.Node
	Network hardware.Network
	// DriverOverhead is the fixed per-iteration driver cost (job
	// scheduling, closure serialization, result handling).
	DriverOverhead units.Seconds
	// PerWorkerDriverOverhead is the additional per-iteration driver cost
	// of each worker: the driver schedules one task set per worker, so its
	// bookkeeping grows with the cluster.
	PerWorkerDriverOverhead units.Seconds
	// TaskOverhead is the per-task launch cost.
	TaskOverhead units.Seconds
	// StragglerSigma is the per-task multiplicative noise deviation.
	StragglerSigma float64
	// Seed drives the noise.
	Seed int64
}

// PaperFig2Config is the §V-A testbed: the fully-connected MNIST network
// (W = 12·10⁶ 64-bit parameters, 6·W flops per example) trained by batch
// gradient descent over 60,000 examples on Xeon E3-1240 workers with
// 1 Gbit/s Ethernet. The overhead terms are the simulator's stand-in for
// the measured Spark framework costs.
func PaperFig2Config() Config {
	return Config{
		Parameters:              12e6,
		PrecisionBits:           64,
		BatchSize:               60000,
		FlopsPerExample:         6 * 12e6,
		Node:                    hardware.XeonE31240(),
		Network:                 hardware.GigabitEthernet(),
		DriverOverhead:          units.Seconds(0.30),
		PerWorkerDriverOverhead: units.Seconds(0.06),
		TaskOverhead:            units.Seconds(0.12),
		StragglerSigma:          0.04,
		Seed:                    1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Parameters <= 0 || c.PrecisionBits <= 0 || c.BatchSize <= 0 || c.FlopsPerExample <= 0 {
		return fmt.Errorf("sparksim: W, precision, S and C must be positive")
	}
	sub := cluster.Config{
		Node: c.Node, Network: c.Network,
		TaskOverhead: c.TaskOverhead, StragglerSigma: c.StragglerSigma,
	}
	if c.DriverOverhead < 0 || c.PerWorkerDriverOverhead < 0 {
		return fmt.Errorf("sparksim: negative driver overhead")
	}
	return sub.Validate()
}

// modelBits returns the shipped model size.
func (c Config) modelBits() units.Bits {
	return units.Bits(c.PrecisionBits * c.Parameters)
}

// IterationTime simulates iterations gradient-descent iterations on n
// workers and returns the mean per-iteration wall time.
func IterationTime(cfg Config, n, iterations int) (units.Seconds, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("sparksim: %d workers", n)
	}
	if iterations < 1 {
		return 0, fmt.Errorf("sparksim: %d iterations", iterations)
	}
	sim, err := cluster.New(cluster.Config{
		Node:           cfg.Node,
		Network:        cfg.Network,
		TaskOverhead:   cfg.TaskOverhead,
		StragglerSigma: cfg.StragglerSigma,
		Seed:           cfg.Seed + int64(n), // distinct noise per cluster size
	})
	if err != nil {
		return 0, err
	}
	for it := 0; it < iterations; it++ {
		driver := cfg.DriverOverhead + cfg.PerWorkerDriverOverhead*units.Seconds(n)
		if err := sim.Overhead(driver); err != nil {
			return 0, err
		}
		if _, err := sim.TorrentBroadcast(cfg.modelBits(), n); err != nil {
			return 0, err
		}
		perWorker := cfg.FlopsPerExample * cfg.BatchSize / float64(n)
		if _, err := sim.UniformComputePhase(perWorker, n); err != nil {
			return 0, err
		}
		if _, err := sim.SqrtWaveAggregate(cfg.modelBits(), n); err != nil {
			return 0, err
		}
	}
	return sim.Clock() / units.Seconds(iterations), nil
}

// SpeedupCurve simulates the experimental speedup s(n) = t(1)/t(n) for the
// given worker counts, averaging iterations per point.
func SpeedupCurve(cfg Config, workers []int, iterations int) (core.Curve, error) {
	if len(workers) == 0 {
		return core.Curve{}, fmt.Errorf("sparksim: no worker counts")
	}
	t1, err := IterationTime(cfg, 1, iterations)
	if err != nil {
		return core.Curve{}, err
	}
	curve := core.Curve{Name: "spark simulation", Points: make([]core.Point, 0, len(workers))}
	for _, n := range workers {
		tn, err := IterationTime(cfg, n, iterations)
		if err != nil {
			return core.Curve{}, err
		}
		curve.Points = append(curve.Points, core.Point{
			N:       n,
			Time:    tn,
			Speedup: float64(t1) / float64(tn),
		})
	}
	return curve, nil
}
