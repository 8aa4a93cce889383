// Package gd holds the paper's analytic scalability models for
// data-parallel gradient descent (§IV-A):
//
//	t_cp = C·S / (F·n)
//	t_cm = 2·(32·W/B)·log(n)          (generic two-stage tree)
//
// Averaged shard gradients equal the sequential batch gradient, so the
// paper treats the distributed algorithm's statistical behaviour as
// unchanged and models only its time.
package gd

import (
	"fmt"

	"dmlscale/internal/comm"
	"dmlscale/internal/core"
	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

// Workload describes a gradient-descent workload for the analytic model.
type Workload struct {
	// Name labels the workload.
	Name string
	// FlopsPerExample is C, the training cost of one example (the paper's
	// 6·W for dense networks).
	FlopsPerExample float64
	// BatchSize is S. For batch gradient descent it is the dataset size;
	// for weak-scaling mini-batch SGD it is the per-worker batch.
	BatchSize float64
	// ModelBits is the communicated model size in bits (32·W or 64·W
	// depending on the precision the framework ships).
	ModelBits units.Bits
}

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if w.FlopsPerExample <= 0 || w.BatchSize <= 0 || w.ModelBits <= 0 {
		return fmt.Errorf("gd: workload %q: C, S and model bits must be positive", w.Name)
	}
	return nil
}

// Model builds the paper's strong-scaling gradient-descent model on the
// given hardware with the given communication protocol:
//
//	t(n) = C·S/(F·n) + t_cm(model bits, n)
func Model(w Workload, node hardware.Node, protocol comm.Model) (core.Model, error) {
	if err := w.Validate(); err != nil {
		return core.Model{}, err
	}
	if err := node.Validate(); err != nil {
		return core.Model{}, err
	}
	f := node.EffectiveFlops()
	return core.Model{
		Name: w.Name,
		Computation: func(n int) units.Seconds {
			return units.ComputeTime(w.FlopsPerExample*w.BatchSize/float64(n), f)
		},
		Communication: func(n int) units.Seconds {
			return protocol.Time(w.ModelBits, n)
		},
	}, nil
}

// WeakScalingModel builds the paper's Fig. 3 weak-scaling model: each worker
// holds a fixed batch S, the effective batch grows with n, and the metric is
// the time to process a single training instance:
//
//	t(n) = (C·S/F + t_cm(model bits, n)) / n
func WeakScalingModel(w Workload, node hardware.Node, protocol comm.Model) (core.Model, error) {
	if err := w.Validate(); err != nil {
		return core.Model{}, err
	}
	if err := node.Validate(); err != nil {
		return core.Model{}, err
	}
	f := node.EffectiveFlops()
	return core.WeakScaled(w.Name,
		func(n int) units.Seconds {
			return units.ComputeTime(w.FlopsPerExample*w.BatchSize, f)
		},
		func(n int) units.Seconds {
			return protocol.Time(w.ModelBits, n)
		},
	), nil
}
