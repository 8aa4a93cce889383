// Package asyncgd explores the paper's first future-work direction
// (§VI): modeling asynchronous gradient descent. Its analytic model covers
// asynchronous SGD throughput and staleness: with no barrier, workers
// pipeline communication behind computation, so per-update time is
// max(compute/n, comm-service time), while gradient staleness grows with
// the ratio of communication to computation — the price asynchrony pays in
// convergence.
package asyncgd

import (
	"fmt"

	"dmlscale/internal/core"
	"dmlscale/internal/units"
)

// Model describes asynchronous data-parallel SGD.
type Model struct {
	// ComputePerBatch is the single-node time to compute one gradient.
	ComputePerBatch units.Seconds
	// CommPerUpdate is the time to ship one gradient/parameter exchange
	// with the parameter server.
	CommPerUpdate units.Seconds
	// ConvergencePenalty γ inflates the iteration count by
	// (1 + γ·staleness): stale gradients slow convergence.
	ConvergencePenalty float64
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.ComputePerBatch <= 0 || m.CommPerUpdate < 0 || m.ConvergencePenalty < 0 {
		return fmt.Errorf("asyncgd: compute must be positive, comm and penalty non-negative")
	}
	return nil
}

// Staleness returns the expected number of updates applied between a
// worker's read and write: the updates the other n−1 workers push during one
// compute+comm cycle, n·(comm)/cycle-normalized. With negligible
// communication it approaches n−1.
func (m Model) Staleness(n int) float64 {
	if n <= 1 {
		return 0
	}
	cycle := float64(m.ComputePerBatch + m.CommPerUpdate)
	if cycle == 0 {
		return float64(n - 1)
	}
	return float64(n-1) * float64(m.ComputePerBatch) / cycle
}

// UpdateTime returns the steady-state time between consecutive global
// updates with n workers: workers produce gradients every
// (compute+comm)/n on average, but the parameter server can absorb at most
// one update per CommPerUpdate — the serving bottleneck.
func (m Model) UpdateTime(n int) units.Seconds {
	if n < 1 {
		n = 1
	}
	producer := (m.ComputePerBatch + m.CommPerUpdate) / units.Seconds(n)
	if producer < m.CommPerUpdate {
		return m.CommPerUpdate
	}
	return producer
}

// RawSpeedup returns the update-throughput speedup over one worker,
// ignoring convergence effects.
func (m Model) RawSpeedup(n int) float64 {
	return float64(m.UpdateTime(1)) / float64(m.UpdateTime(n))
}

// EffectiveSpeedup divides the raw throughput speedup by the convergence
// inflation (1 + γ·staleness): the speedup in time-to-accuracy rather than
// updates per second — the parallelization/convergence trade-off the paper
// calls out.
func (m Model) EffectiveSpeedup(n int) float64 {
	return m.RawSpeedup(n) / (1 + m.ConvergencePenalty*m.Staleness(n))
}

// CoreModel adapts the effective speedup into a core.Model over a unit
// workload so the standard curve and optimum tooling applies.
func (m Model) CoreModel(name string) core.Model {
	return core.Model{
		Name: name,
		Computation: func(n int) units.Seconds {
			// Encode effective speedup as time = t(1)/s_eff(n).
			return units.Seconds(float64(m.UpdateTime(1)) / m.EffectiveSpeedup(n))
		},
	}
}

// OptimalWorkers returns the worker count maximizing effective speedup over
// [1, maxN].
func (m Model) OptimalWorkers(maxN int) (int, float64, error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if maxN < 1 {
		return 0, 0, fmt.Errorf("asyncgd: maxN %d < 1", maxN)
	}
	bestN, bestS := 1, m.EffectiveSpeedup(1)
	for n := 2; n <= maxN; n++ {
		if s := m.EffectiveSpeedup(n); s > bestS {
			bestN, bestS = n, s
		}
	}
	return bestN, bestS, nil
}
