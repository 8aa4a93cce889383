// Package hardware describes the compute and network resources a distributed
// machine-learning workload runs on. The scalability models in this module
// need nothing beyond what a spec sheet provides: peak floating-point
// throughput, an achievable-fraction derating, and link bandwidth. That is
// the paper's central premise — no profiling runs, only hardware specs.
package hardware

import (
	"fmt"

	"dmlscale/internal/units"
)

// Node is one homogeneous computing device in a cluster.
type Node struct {
	// Name identifies the device, e.g. "Intel Xeon E3-1240".
	Name string
	// PeakFlops is the spec-sheet peak throughput for the relevant
	// precision (the paper uses double precision for CPUs and single for
	// GPUs).
	PeakFlops units.Flops
	// Efficiency is the fraction of peak a tuned kernel actually reaches,
	// in (0, 1]. The paper assumes 0.8 for the Xeon and 0.5 for the K40.
	Efficiency float64
	// Memory is the device memory; informational, not used by the models.
	Memory units.Bytes
	// CostPerHour is the provisioning cost of one node for one hour, in
	// arbitrary currency units. The planner prices configurations with
	// workers × hours × CostPerHour; zero means unpriced and every
	// configuration costs nothing.
	CostPerHour float64
}

// EffectiveFlops is the throughput the models should use:
// PeakFlops × Efficiency.
func (n Node) EffectiveFlops() units.Flops {
	return units.Flops(float64(n.PeakFlops) * n.Efficiency)
}

// Validate reports whether the node description is usable in a model.
func (n Node) Validate() error {
	if n.PeakFlops <= 0 {
		return fmt.Errorf("hardware: node %q: peak flops must be positive, got %v", n.Name, n.PeakFlops)
	}
	if n.Efficiency <= 0 || n.Efficiency > 1 {
		return fmt.Errorf("hardware: node %q: efficiency must be in (0,1], got %v", n.Name, n.Efficiency)
	}
	if n.CostPerHour < 0 {
		return fmt.Errorf("hardware: node %q: cost per hour must be non-negative, got %v", n.Name, n.CostPerHour)
	}
	return nil
}

// Network is the communication medium between nodes.
type Network struct {
	// Name identifies the medium, e.g. "1 Gbit/s Ethernet".
	Name string
	// Bandwidth is the point-to-point link bandwidth.
	Bandwidth units.BitsPerSecond
	// Latency is the per-message fixed cost. The paper's models omit it
	// (bandwidth-dominated messages); the simulators use it.
	Latency units.Seconds
	// SharedMemory marks media where transfers are effectively free for
	// the analytical model, as the paper assumes for the DL980 experiments.
	SharedMemory bool
}

// Validate reports whether the network description is usable in a model.
func (nw Network) Validate() error {
	if nw.SharedMemory {
		return nil
	}
	if nw.Bandwidth <= 0 {
		return fmt.Errorf("hardware: network %q: bandwidth must be positive, got %v", nw.Name, nw.Bandwidth)
	}
	if nw.Latency < 0 {
		return fmt.Errorf("hardware: network %q: latency must be non-negative, got %v", nw.Name, nw.Latency)
	}
	return nil
}

// The catalog below records the exact hardware the paper evaluates on. The
// cost rates are not from the paper (it prices nothing): they are
// representative on-demand rates for comparable nodes, there so the planner
// can rank configurations by cost out of the box. Absolute values only set
// the currency scale; relative magnitudes (GPU ≫ CPU ≫ single core) are what
// the rankings read.

// XeonE31240 is the CPU of the Spark cluster in §V-A: 211.2 single-precision
// GFLOPS per the Intel export-compliance sheet, so 105.6 GFLOPS double
// precision, derated to 80% achievable.
func XeonE31240() Node {
	return Node{
		Name:        "Intel Xeon E3-1240",
		PeakFlops:   units.Flops(105.6e9),
		Efficiency:  0.8,
		Memory:      16 * units.GB,
		CostPerHour: 0.25,
	}
}

// NvidiaK40 is the GPU of the Chen et al. cluster in §V-A: 4.28 TFLOPS peak,
// derated to 50% achievable.
func NvidiaK40() Node {
	return Node{
		Name:        "nVidia K40",
		PeakFlops:   units.Flops(4.28e12),
		Efficiency:  0.5,
		Memory:      12 * units.GB,
		CostPerHour: 0.90,
	}
}

// ProLiantDL980Core is one core of the HP ProLiant DL980 used for the belief
// propagation experiments in §V-B (80 cores at 1.9 GHz, 2 TB RAM). The
// paper's shared-memory assumption factors absolute FLOPS out of the speedup,
// so the per-core figure only sets an arbitrary time scale; we take 4 flops
// per cycle at full efficiency.
func ProLiantDL980Core() Node {
	return Node{
		Name:        "HP ProLiant DL980 core (1.9 GHz)",
		PeakFlops:   units.Flops(4 * 1.9e9),
		Efficiency:  1.0,
		Memory:      2 * units.TB,
		CostPerHour: 0.10,
	}
}

// GigabitEthernet is the 1 Gbit/s network of the Spark cluster.
func GigabitEthernet() Network {
	return Network{
		Name:      "1 Gbit/s Ethernet",
		Bandwidth: units.Gbps,
		Latency:   units.Seconds(100e-6),
	}
}

// TenGigabitEthernet is a faster variant for what-if studies.
func TenGigabitEthernet() Network {
	return Network{
		Name:      "10 Gbit/s Ethernet",
		Bandwidth: 10 * units.Gbps,
		Latency:   units.Seconds(50e-6),
	}
}

// SharedMemoryBus models in-machine communication, as in the DL980
// experiments where the paper treats communication time as negligible.
func SharedMemoryBus() Network {
	return Network{
		Name:         "shared memory",
		SharedMemory: true,
		Bandwidth:    100 * units.Gbps,
	}
}
