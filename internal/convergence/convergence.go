// Package convergence models the parallelization–convergence trade-off the
// paper names as future work (§VI): data-parallel gradient descent buys
// per-iteration speedup by growing the effective batch, but larger batches
// change how many iterations convergence takes. Combining the paper's
// per-iteration time model with a batch-to-iterations rule yields
// time-to-accuracy — the metric a practitioner actually optimizes.
package convergence

import (
	"fmt"
	"math"

	"dmlscale/internal/core"
	"dmlscale/internal/units"
)

// IterationRule maps a batch-size growth factor k = S_effective/S_base to
// the multiplier on iterations-to-converge.
type IterationRule func(k float64) float64

// LinearScalingRule is the optimistic regime: with the learning rate scaled
// linearly in batch size, iterations shrink proportionally — iteration
// multiplier 1/k (perfect scaling, valid for small k).
func LinearScalingRule(k float64) float64 { return 1 / k }

// SqrtScalingRule is the conservative regime: the statistical benefit of a
// larger batch only shrinks iterations by sqrt(k) — multiplier 1/sqrt(k).
func SqrtScalingRule(k float64) float64 { return 1 / math.Sqrt(k) }

// DiminishingRule interpolates: full benefit up to a critical batch growth
// kc, none beyond — the "critical batch size" shape measured in practice.
// Past kc the iteration count stops shrinking.
func DiminishingRule(kc float64) IterationRule {
	return func(k float64) float64 {
		if k <= kc {
			return 1 / k
		}
		return 1 / kc
	}
}

// TradeoffModel combines a per-iteration time model with an iteration rule
// to produce time-to-accuracy as a function of workers.
type TradeoffModel struct {
	// Name labels the model.
	Name string
	// IterationTime is the per-iteration time at n workers (per-worker
	// batch fixed, effective batch = n·S).
	IterationTime core.TimeFunc
	// BaseIterations is the iterations to converge at n = 1.
	BaseIterations float64
	// Rule maps batch growth k = S_effective/S_base to the iteration
	// multiplier.
	Rule IterationRule
	// BatchGrowth maps the worker count to the batch growth k the rule
	// sees. Nil means k(n) = n, the weak-scaling default where each worker
	// adds a fixed per-worker batch; strong-scaling and asynchronous
	// models, whose effective batch does not grow with workers, supply
	// k(n) = 1.
	BatchGrowth func(n int) float64
}

// Validate reports whether the model is usable.
func (m TradeoffModel) Validate() error {
	if m.IterationTime == nil {
		return fmt.Errorf("convergence: model %q: nil iteration time", m.Name)
	}
	if m.BaseIterations <= 0 {
		return fmt.Errorf("convergence: model %q: non-positive base iterations", m.Name)
	}
	if m.Rule == nil {
		return fmt.Errorf("convergence: model %q: nil iteration rule", m.Name)
	}
	return nil
}

// Growth returns the batch growth k at n workers: BatchGrowth(n), or n
// itself under the weak-scaling default.
func (m TradeoffModel) Growth(n int) float64 {
	if m.BatchGrowth == nil {
		return float64(n)
	}
	return m.BatchGrowth(n)
}

// Iterations returns the expected iterations to converge at n workers.
func (m TradeoffModel) Iterations(n int) float64 {
	return m.BaseIterations * m.Rule(m.Growth(n))
}

// TimeToAccuracy returns iterations(n) × iteration-time(n).
func (m TradeoffModel) TimeToAccuracy(n int) units.Seconds {
	return units.Seconds(m.Iterations(n)) * m.IterationTime(n)
}

// Speedup returns time-to-accuracy speedup over one worker.
func (m TradeoffModel) Speedup(n int) float64 {
	t1 := float64(m.TimeToAccuracy(1))
	tn := float64(m.TimeToAccuracy(n))
	if tn == 0 {
		return math.Inf(1)
	}
	return t1 / tn
}

// OptimalWorkers maximizes time-to-accuracy speedup over [1, maxN].
func (m TradeoffModel) OptimalWorkers(maxN int) (int, float64, error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if maxN < 1 {
		return 0, 0, fmt.Errorf("convergence: maxN %d < 1", maxN)
	}
	bestN, bestS := 1, 1.0
	for n := 1; n <= maxN; n++ {
		if s := m.Speedup(n); s > bestS {
			bestN, bestS = n, s
		}
	}
	return bestN, bestS, nil
}
