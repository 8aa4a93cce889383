// Package cluster is a deterministic discrete-event simulator of a BSP
// cluster: n homogeneous nodes executing compute tasks and structured
// communication rounds over a shared network. It stands in for the physical
// testbeds of the paper's experiments (the Spark cluster, the GPU cluster,
// the DL980) and supplies the mechanisms that make real measurements deviate
// from the analytic models: per-task scheduling overhead, fixed per-message
// latency, and seeded multiplicative stragglers.
//
// All randomness is drawn from a seeded source, so simulations are exactly
// reproducible.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

// Config describes the simulated cluster.
type Config struct {
	// Node is the per-worker hardware.
	Node hardware.Node
	// Network joins the workers (and the driver).
	Network hardware.Network
	// TaskOverhead is the fixed cost of scheduling and launching one task
	// on a worker (serialization, dispatch, JVM wake-up in Spark terms).
	TaskOverhead units.Seconds
	// StragglerSigma is the standard deviation of the multiplicative
	// compute-time noise: each task runs for time·(1 + |N(0, σ²)|).
	// Zero disables stragglers.
	StragglerSigma float64
	// Seed drives the straggler noise.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.TaskOverhead < 0 {
		return fmt.Errorf("cluster: negative task overhead")
	}
	if c.StragglerSigma < 0 {
		return fmt.Errorf("cluster: negative straggler sigma")
	}
	return nil
}

// Sim is a running simulation with a clock.
type Sim struct {
	cfg   Config
	clock units.Seconds
	rng   *rand.Rand
}

// New validates the configuration and returns a simulator at time zero.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Clock returns the current simulated time.
func (s *Sim) Clock() units.Seconds { return s.clock }

// straggle returns the multiplicative slowdown of one task.
func (s *Sim) straggle() float64 {
	if s.cfg.StragglerSigma == 0 {
		return 1
	}
	return 1 + math.Abs(s.rng.NormFloat64())*s.cfg.StragglerSigma
}

// ComputePhase runs one task per worker concurrently, each performing the
// given flops; the phase lasts until the slowest task (the BSP barrier
// semantics) and includes per-task overhead. It returns the phase duration.
func (s *Sim) ComputePhase(flopsPerWorker []float64) (units.Seconds, error) {
	if len(flopsPerWorker) == 0 {
		return 0, fmt.Errorf("cluster: compute phase with no tasks")
	}
	f := s.cfg.Node.EffectiveFlops()
	var phase units.Seconds
	for _, flops := range flopsPerWorker {
		if flops < 0 {
			return 0, fmt.Errorf("cluster: negative task flops")
		}
		t := units.ComputeTime(flops*s.straggle(), f) + s.cfg.TaskOverhead
		if t > phase {
			phase = t
		}
	}
	s.clock += phase
	return phase, nil
}

// UniformComputePhase is ComputePhase with the same flops on every worker.
func (s *Sim) UniformComputePhase(flops float64, workers int) (units.Seconds, error) {
	if workers < 1 {
		return 0, fmt.Errorf("cluster: compute phase with %d workers", workers)
	}
	per := make([]float64, workers)
	for i := range per {
		per[i] = flops
	}
	return s.ComputePhase(per)
}

// TransferRounds moves a payload through the network in the given number of
// sequential rounds, each paying the bandwidth cost of the full payload plus
// the per-message latency. Shared-memory networks cost nothing. It returns
// the phase duration.
func (s *Sim) TransferRounds(payload units.Bits, rounds int) (units.Seconds, error) {
	if rounds < 0 {
		return 0, fmt.Errorf("cluster: negative transfer rounds")
	}
	if payload < 0 {
		return 0, fmt.Errorf("cluster: negative payload")
	}
	if s.cfg.Network.SharedMemory || rounds == 0 {
		return 0, nil
	}
	per := units.TransferTime(payload, s.cfg.Network.Bandwidth) + s.cfg.Network.Latency
	d := per * units.Seconds(rounds)
	s.clock += d
	return d, nil
}

// TorrentBroadcast ships the payload from the driver to n workers with a
// torrent-like protocol: ceil(log2(n)) doubling rounds, plus the initial
// driver→first-worker transfer when n ≥ 1.
func (s *Sim) TorrentBroadcast(payload units.Bits, n int) (units.Seconds, error) {
	if n < 1 {
		return 0, fmt.Errorf("cluster: broadcast to %d workers", n)
	}
	rounds := 1 // driver seeds the first copy
	if n > 1 {
		rounds += int(math.Ceil(math.Log2(float64(n))))
	}
	return s.TransferRounds(payload, rounds)
}

// SqrtWaveAggregate collects one payload from each of n workers in Spark's
// two-wave treeAggregate pattern: each wave performs ceil(sqrt(n))
// sequential transfers.
func (s *Sim) SqrtWaveAggregate(payload units.Bits, n int) (units.Seconds, error) {
	if n < 1 {
		return 0, fmt.Errorf("cluster: aggregate from %d workers", n)
	}
	fanIn := int(math.Ceil(math.Sqrt(float64(n))))
	return s.TransferRounds(payload, 2*fanIn)
}

// TreeAllReduce reduces and redistributes the payload across n workers in
// ceil(log2(n)) exchange rounds (recursive doubling).
func (s *Sim) TreeAllReduce(payload units.Bits, n int) (units.Seconds, error) {
	if n < 1 {
		return 0, fmt.Errorf("cluster: all-reduce over %d workers", n)
	}
	rounds := 0
	if n > 1 {
		rounds = int(math.Ceil(math.Log2(float64(n))))
	}
	return s.TransferRounds(payload, rounds)
}

// Overhead advances the clock by a fixed framework cost (driver bookkeeping,
// job scheduling).
func (s *Sim) Overhead(d units.Seconds) error {
	if d < 0 {
		return fmt.Errorf("cluster: negative overhead")
	}
	s.clock += d
	return nil
}
