package core

import (
	"dmlscale/internal/units"
)

// WeakScaled converts a strong-scaling model of per-input-unit cost into the
// paper's weak-scaling view (§V-A, Fig. 3): each worker contributes a fixed
// per-worker workload, the effective batch grows with n, and the metric is
// time per processed instance
//
//	t_instance(n) = (t_cp(fixed per-worker work) + t_cm(n)) / n
//
// so the returned model's Speedup is "single instance speedup" and may grow
// without bound for logarithmic communication.
func WeakScaled(name string, perWorkerCompute TimeFunc, communication TimeFunc) Model {
	return Model{
		Name: name,
		Computation: func(n int) units.Seconds {
			return perWorkerCompute(n) / units.Seconds(n)
		},
		Communication: func(n int) units.Seconds {
			if communication == nil {
				return 0
			}
			return communication(n) / units.Seconds(n)
		},
	}
}
