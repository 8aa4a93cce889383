// Package registry is the single catalog behind every name-keyed construction
// in the module: communication protocols (including composed ones), hardware
// node and network presets, graph families, neural-network architectures and
// workload families. The scenario schema, the command-line tools and the
// experiment harness all resolve names through this package, so each
// name→constructor switch exists exactly once.
//
// The split follows Verbraeken et al.'s survey axes: topology and bridging
// model live in the protocol registry, the machine catalog in the hardware
// registry, and the algorithm family (synchronous gradient descent, weak
// scaling, graph inference, MRF inference, asynchronous gradient descent) in
// the workload-family registry. One JSON scenario names one point in that
// cross product.
package registry

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"dmlscale/internal/asyncgd"
	"dmlscale/internal/bp"
	"dmlscale/internal/comm"
	"dmlscale/internal/convergence"
	"dmlscale/internal/core"
	"dmlscale/internal/gd"
	"dmlscale/internal/graph"
	"dmlscale/internal/hardware"
	"dmlscale/internal/memo"
	"dmlscale/internal/nncost"
	"dmlscale/internal/obs"
	"dmlscale/internal/partition"
	"dmlscale/internal/units"
)

// ---------------------------------------------------------------------------
// Protocols
// ---------------------------------------------------------------------------

// ProtocolSpec names and parameterizes a comm.Model in JSON-friendly form.
// Leaf kinds (linear, tree, two-stage-tree, spark, sqrt-waves, ring,
// recursive-doubling, shuffle, pipelined-tree, shared-memory/none) read the
// scalar fields; composite kinds (sum, scale, per-iter, with-latency) wrap
// the specs in Of.
type ProtocolSpec struct {
	// Kind selects the protocol; ProtocolKinds lists the options.
	Kind string `json:"kind"`
	// BandwidthBitsPerSec is the link bandwidth; required by every leaf
	// kind except shared-memory.
	BandwidthBitsPerSec float64 `json:"bandwidth_bits_per_sec,omitempty"`
	// Network names a cataloged network preset (NetworkPresets) whose
	// bandwidth the protocol inherits instead of a raw
	// BandwidthBitsPerSec; naming both is an error. The with-latency kind
	// also inherits the preset's latency when LatencySeconds is zero.
	Network string `json:"network,omitempty"`
	// Chunks is the pipelined-tree pipeline depth; 0 means 64.
	Chunks int `json:"chunks,omitempty"`
	// Waves is the sqrt-waves wave count; 0 means the paper's 2.
	Waves int `json:"waves,omitempty"`
	// Factor scales the inner model (kind scale).
	Factor float64 `json:"factor,omitempty"`
	// Iterations multiplies the inner per-iteration model (kind per-iter).
	Iterations float64 `json:"iterations,omitempty"`
	// LatencySeconds is the per-stage fixed cost (kind with-latency).
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
	// Stages is the with-latency stage-count law: "tree" (default) or
	// "linear".
	Stages string `json:"stages,omitempty"`
	// Label names a composed protocol in reports; optional.
	Label string `json:"label,omitempty"`
	// Of holds the inner specs of a composite kind.
	Of []ProtocolSpec `json:"of,omitempty"`
}

// protocolEntry is one protocol-registry row.
type protocolEntry struct {
	// needsBandwidth marks leaf kinds that require a positive bandwidth.
	needsBandwidth bool
	// composite marks kinds that wrap inner specs in Of — expressible in
	// scenario files but not through a single CLI flag.
	composite bool
	build     func(ProtocolSpec) (comm.Model, error)
}

// protocols is THE protocol registry — the only place in the module that
// maps protocol names to comm.Model constructors. The composite kinds (sum,
// scale, per-iter, with-latency) recurse through Protocol, so they are
// registered in init to break the initialization cycle.
var protocols map[string]protocolEntry

func init() {
	protocols = map[string]protocolEntry{
		"linear": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.Linear{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"tree": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.Tree{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"two-stage-tree": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.TwoStageTree{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"spark": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.SparkGradient(units.BitsPerSecond(s.BandwidthBitsPerSec)), nil
		}},
		"sqrt-waves": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if s.Waves < 0 {
				return nil, fmt.Errorf("registry: protocol sqrt-waves: negative waves %d", s.Waves)
			}
			return comm.SqrtWaves{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec), Waves: s.Waves}, nil
		}},
		"ring": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.RingAllReduce{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"recursive-doubling": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.RecursiveDoubling{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"shuffle": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			return comm.Shuffle{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec)}, nil
		}},
		"pipelined-tree": {needsBandwidth: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if s.Chunks < 0 {
				return nil, fmt.Errorf("registry: protocol pipelined-tree: negative chunks %d", s.Chunks)
			}
			return comm.PipelinedTree{Bandwidth: units.BitsPerSecond(s.BandwidthBitsPerSec), Chunks: s.Chunks}, nil
		}},
		"shared-memory": {build: func(ProtocolSpec) (comm.Model, error) {
			return comm.SharedMemory{}, nil
		}},
		// none is the CLI-friendly alias for shared-memory.
		"none": {build: func(ProtocolSpec) (comm.Model, error) {
			return comm.SharedMemory{}, nil
		}},
		"sum": {composite: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if len(s.Of) == 0 {
				return nil, fmt.Errorf("registry: protocol sum needs at least one inner protocol in 'of'")
			}
			inner := make([]comm.Model, len(s.Of))
			for i, child := range s.Of {
				m, err := Protocol(child)
				if err != nil {
					return nil, err
				}
				inner[i] = m
			}
			label := s.Label
			if label == "" {
				label = "sum"
			}
			return comm.Sum(label, inner...), nil
		}},
		"scale": {composite: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if s.Factor <= 0 {
				return nil, fmt.Errorf("registry: protocol scale needs a positive factor, got %g", s.Factor)
			}
			m, err := onlyInner(s)
			if err != nil {
				return nil, err
			}
			return comm.Scale(s.Factor, m), nil
		}},
		"per-iter": {composite: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if s.Iterations <= 0 {
				return nil, fmt.Errorf("registry: protocol per-iter needs positive iterations, got %g", s.Iterations)
			}
			m, err := onlyInner(s)
			if err != nil {
				return nil, err
			}
			return comm.PerIter(s.Iterations, m), nil
		}},
		"with-latency": {composite: true, build: func(s ProtocolSpec) (comm.Model, error) {
			if s.LatencySeconds < 0 {
				return nil, fmt.Errorf("registry: protocol with-latency needs non-negative latency, got %g", s.LatencySeconds)
			}
			var stages func(int) float64
			switch s.Stages {
			case "", "tree":
				stages = comm.TreeStages
			case "linear":
				stages = comm.LinearStages
			default:
				return nil, fmt.Errorf("registry: protocol with-latency: unknown stages law %q (tree, linear)", s.Stages)
			}
			m, err := onlyInner(s)
			if err != nil {
				return nil, err
			}
			return comm.WithLatency(m, units.Seconds(s.LatencySeconds), stages), nil
		}},
	}
}

// onlyInner resolves the single inner spec of a composite kind.
func onlyInner(s ProtocolSpec) (comm.Model, error) {
	if len(s.Of) != 1 {
		return nil, fmt.Errorf("registry: protocol %s needs exactly one inner protocol in 'of', got %d", s.Kind, len(s.Of))
	}
	return Protocol(s.Of[0])
}

// Protocol builds the comm.Model a spec describes, recursing through
// composite kinds. A spec that names a network preset inherits the preset's
// bandwidth (and, for with-latency, its latency) before dispatch, so
// scenarios can say "network": "gigabit-ethernet" instead of repeating raw
// figures; a preset alongside an explicit bandwidth is a conflict, not a
// silent override.
func Protocol(s ProtocolSpec) (comm.Model, error) {
	entry, ok := protocols[s.Kind]
	if !ok {
		return nil, fmt.Errorf("registry: unknown protocol kind %q (known: %s)", s.Kind, joined(ProtocolKinds()))
	}
	if s.Network != "" {
		// Composites other than with-latency consume no bandwidth or
		// latency themselves, so a preset there would silently do nothing;
		// refuse it instead of letting the inner leaves' figures win.
		if entry.composite && s.Kind != "with-latency" {
			return nil, fmt.Errorf("registry: protocol %q: network preset %q has no effect on a composite kind; name it on the inner protocols",
				s.Kind, s.Network)
		}
		nw, err := PresetNetwork(s.Network)
		if err != nil {
			return nil, err
		}
		if s.BandwidthBitsPerSec > 0 {
			return nil, fmt.Errorf("registry: protocol %q: network preset %q conflicts with explicit bandwidth %g bit/s",
				s.Kind, s.Network, s.BandwidthBitsPerSec)
		}
		s.BandwidthBitsPerSec = float64(nw.Bandwidth)
		if s.Kind == "with-latency" && s.LatencySeconds == 0 {
			s.LatencySeconds = float64(nw.Latency)
		}
	}
	if entry.needsBandwidth && s.BandwidthBitsPerSec <= 0 {
		return nil, fmt.Errorf("registry: protocol %q needs a positive bandwidth", s.Kind)
	}
	return entry.build(s)
}

// ProtocolKinds returns the registered protocol kinds in stable order.
func ProtocolKinds() []string {
	return sortedKeys(protocols)
}

// LeafProtocolKinds returns the kinds a bare name fully describes — the
// ones a single CLI flag or a sweep's protocol axis can select. Composite
// kinds (sum, scale, per-iter, with-latency) need inner specs and are
// omitted.
func LeafProtocolKinds() []string {
	var kinds []string
	for _, kind := range sortedKeys(protocols) {
		if !protocols[kind].composite {
			kinds = append(kinds, kind)
		}
	}
	return kinds
}

// ---------------------------------------------------------------------------
// Hardware
// ---------------------------------------------------------------------------

// HardwareSpec names a catalog node or describes a custom one.
type HardwareSpec struct {
	// Preset names a catalog entry; NodePresets lists the options.
	Preset string `json:"preset,omitempty"`
	// PeakFlops and Efficiency describe a custom node when Preset is empty.
	PeakFlops  float64 `json:"peak_flops,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Name labels a custom node; empty means "custom".
	Name string `json:"name,omitempty"`
	// CostPerHour prices one node-hour for the planner's cost objective.
	// Zero keeps the preset's catalog rate (or leaves a custom node
	// unpriced); positive overrides it.
	CostPerHour float64 `json:"cost_per_hour,omitempty"`
}

// nodePresets is THE hardware-preset table — the only name→node catalog in
// the module.
var nodePresets = map[string]func() hardware.Node{
	"xeon-e3-1240": hardware.XeonE31240,
	"nvidia-k40":   hardware.NvidiaK40,
	"dl980-core":   hardware.ProLiantDL980Core,
}

// networkPresets maps names to the cataloged networks.
var networkPresets = map[string]func() hardware.Network{
	"gigabit-ethernet":     hardware.GigabitEthernet,
	"ten-gigabit-ethernet": hardware.TenGigabitEthernet,
	"shared-memory":        hardware.SharedMemoryBus,
}

// Node resolves a hardware spec against the preset table, or validates the
// custom node it describes. A positive CostPerHour overrides the preset's
// catalog rate.
func Node(s HardwareSpec) (hardware.Node, error) {
	if s.Preset != "" {
		n, err := PresetNode(s.Preset)
		if err != nil {
			return hardware.Node{}, err
		}
		if s.CostPerHour != 0 {
			n.CostPerHour = s.CostPerHour
			if err := n.Validate(); err != nil {
				return hardware.Node{}, err
			}
		}
		return n, nil
	}
	eff := s.Efficiency
	if eff == 0 {
		eff = 1
	}
	name := s.Name
	if name == "" {
		name = "custom"
	}
	n := hardware.Node{Name: name, PeakFlops: units.Flops(s.PeakFlops), Efficiency: eff, CostPerHour: s.CostPerHour}
	if err := n.Validate(); err != nil {
		return hardware.Node{}, err
	}
	return n, nil
}

// PresetNode resolves a catalog node by name.
func PresetNode(name string) (hardware.Node, error) {
	build, ok := nodePresets[name]
	if !ok {
		return hardware.Node{}, fmt.Errorf("registry: unknown hardware preset %q (known: %s)", name, joined(NodePresets()))
	}
	return build(), nil
}

// NodePresets returns the cataloged node names in stable order.
func NodePresets() []string {
	return sortedKeys(nodePresets)
}

// PresetNetwork resolves a cataloged network by name.
func PresetNetwork(name string) (hardware.Network, error) {
	build, ok := networkPresets[name]
	if !ok {
		return hardware.Network{}, fmt.Errorf("registry: unknown network preset %q (known: %s)", name, joined(NetworkPresets()))
	}
	return build(), nil
}

// NetworkPresets returns the cataloged network names in stable order.
func NetworkPresets() []string {
	return sortedKeys(networkPresets)
}

// ---------------------------------------------------------------------------
// Graph families
// ---------------------------------------------------------------------------

// maxGraphVertices bounds generated graphs so a malformed scenario cannot
// request an absurd allocation. The paper's full DNS graph (16.26M vertices)
// fits with headroom.
const maxGraphVertices = 50_000_000

// GraphSpec describes a synthetic graph by family and size.
type GraphSpec struct {
	// Family selects the generator; GraphFamilies lists the options.
	Family string `json:"family"`
	// Vertices is the (approximate) vertex count.
	Vertices int `json:"vertices"`
	// Edges is the target edge count (power-law only).
	Edges int64 `json:"edges,omitempty"`
	// MaxDegree caps the degree distribution (power-law only).
	MaxDegree int32 `json:"max_degree,omitempty"`
	// Seed drives the randomized generators.
	Seed int64 `json:"seed,omitempty"`
}

// graphEntry generates a degree sequence and, optionally, a materialized
// graph for one family.
type graphEntry struct {
	degrees func(GraphSpec) ([]int32, error)
	build   func(GraphSpec) (*graph.Graph, error)
}

// materialized adapts a concrete-graph constructor into a degree generator.
func materialized(build func(GraphSpec) (*graph.Graph, error)) graphEntry {
	return graphEntry{
		degrees: func(s GraphSpec) ([]int32, error) {
			g, err := build(s)
			if err != nil {
				return nil, err
			}
			return g.Degrees(), nil
		},
		build: build,
	}
}

// graphFamilies is THE graph-family registry — the only name→generator
// switch in the module. The dns and power-law builders recurse through the
// cached GraphDegreesCtx, so the map is filled in init to break the
// initialization cycle.
var graphFamilies map[string]graphEntry

func init() {
	graphFamilies = map[string]graphEntry{
		"dns": {
			degrees: func(s GraphSpec) ([]int32, error) {
				return graph.ScaledDNSGraph(s.Vertices).Degrees(s.Seed)
			},
			build: func(s GraphSpec) (*graph.Graph, error) {
				// GraphDegreesCtx, not the raw generator: materializing a
				// cached spec reuses its cached degree sequence.
				degrees, err := GraphDegreesCtx(context.TODO(), s)
				if err != nil {
					return nil, err
				}
				return graph.ChungLu(degrees, s.Seed+1)
			},
		},
		"power-law": {
			degrees: func(s GraphSpec) ([]int32, error) {
				return graph.PowerLawDegrees(s.Vertices, s.Edges, s.MaxDegree, s.Seed)
			},
			build: func(s GraphSpec) (*graph.Graph, error) {
				degrees, err := GraphDegreesCtx(context.TODO(), s)
				if err != nil {
					return nil, err
				}
				return graph.ChungLu(degrees, s.Seed+1)
			},
		},
		"grid": materialized(func(s GraphSpec) (*graph.Graph, error) {
			side := 1
			for side*side < s.Vertices {
				side++
			}
			return graph.Grid2D(side, side)
		}),
		"cycle": materialized(func(s GraphSpec) (*graph.Graph, error) {
			return graph.Cycle(s.Vertices)
		}),
		"tree": materialized(func(s GraphSpec) (*graph.Graph, error) {
			return graph.CompleteBinaryTree(s.Vertices)
		}),
		"star": materialized(func(s GraphSpec) (*graph.Graph, error) {
			return graph.Star(s.Vertices - 1)
		}),
	}
}

// validateGraph checks the spec before dispatch.
func validateGraph(s GraphSpec) error {
	if _, ok := graphFamilies[s.Family]; !ok {
		return fmt.Errorf("registry: unknown graph family %q (known: %s)", s.Family, joined(GraphFamilies()))
	}
	if s.Vertices < 1 {
		return fmt.Errorf("registry: graph family %q: vertices %d < 1", s.Family, s.Vertices)
	}
	if s.Vertices > maxGraphVertices {
		return fmt.Errorf("registry: graph family %q: vertices %d exceed the %d cap", s.Family, s.Vertices, maxGraphVertices)
	}
	// A simple graph has no degree above V−1, and the generator's time and
	// memory grow with the maximum degree, not the vertex count.
	if s.Family == "power-law" && int(s.MaxDegree) >= s.Vertices {
		return fmt.Errorf("registry: graph family %q: max_degree %d must be below vertices %d (at most %d)", s.Family, s.MaxDegree, s.Vertices, s.Vertices-1)
	}
	return nil
}

// GraphDegreesCtx generates the degree sequence of the described graph —
// all the paper's graph-inference model needs. Results are cached by the
// full spec in a bounded single-flight LRU (see cache.go), so a sweep grid
// whose cells share one graph generates it once; the returned slice is
// shared with every other caller of the same spec and must be treated as
// read-only. A caller waiting on another goroutine's in-flight generation
// abandons the wait when ctx fires (the generation itself completes and is
// cached for later callers — see memo.Cache.DoCtx).
func GraphDegreesCtx(ctx context.Context, s GraphSpec) ([]int32, error) {
	e, err := graphDegrees(ctx, s)
	return e.degrees, err
}

// graphDegrees returns the spec's cached degree sequence together with its
// fingerprint, generating and hashing it on the first request.
func graphDegrees(ctx context.Context, s GraphSpec) (degreeEntry, error) {
	if err := validateGraph(s); err != nil {
		return degreeEntry{}, err
	}
	return degreeCache.DoCtx(ctx, s, func() (degreeEntry, error) {
		degrees, err := graphFamilies[s.Family].degrees(s)
		if err != nil {
			return degreeEntry{}, err
		}
		fnv, mix := memo.HashInt32s(degrees)
		return degreeEntry{degrees: degrees, fnv: fnv, mix: mix}, nil
	})
}

// BuildGraph materializes the described graph for algorithms that need the
// edges, not just the degrees. Unlike GraphDegreesCtx it does not cache:
// dmls-bp, its one caller, builds one graph per process.
func BuildGraph(s GraphSpec) (*graph.Graph, error) {
	if err := validateGraph(s); err != nil {
		return nil, err
	}
	return graphFamilies[s.Family].build(s)
}

// GraphFamilies returns the registered graph families in stable order.
func GraphFamilies() []string {
	return sortedKeys(graphFamilies)
}

// ---------------------------------------------------------------------------
// Architectures
// ---------------------------------------------------------------------------

// architectures is THE architecture table: name → nncost cost-counter
// network, the Table I catalog.
var architectures = map[string]func() nncost.Network{
	"fc-mnist":     nncost.MNISTFullyConnected,
	"inception-v3": nncost.InceptionV3,
	"lenet-5":      nncost.LeNet5,
	"alexnet":      nncost.AlexNet,
	"vgg-16":       nncost.VGG16,
}

// Architecture resolves a cost-counter network by name.
func Architecture(name string) (nncost.Network, error) {
	build, ok := architectures[name]
	if !ok {
		return nncost.Network{}, fmt.Errorf("registry: unknown architecture %q (known: %s)", name, joined(Architectures()))
	}
	return build(), nil
}

// Architectures returns the cataloged architecture names in stable order.
func Architectures() []string {
	return sortedKeys(architectures)
}

// ---------------------------------------------------------------------------
// Convergence rules
// ---------------------------------------------------------------------------

// ConvergenceSpec is the scenario schema's convergence block: it names a
// batch-to-iterations rule from package convergence and the iteration budget
// at one worker, which the planner composes with a family's per-iteration
// model into time-to-accuracy.
type ConvergenceSpec struct {
	// Rule selects the batch-to-iterations rule; ConvergenceRules lists
	// the options (linear, sqrt, diminishing).
	Rule string `json:"rule"`
	// BaseIterations is the iterations to converge at one worker.
	BaseIterations float64 `json:"base_iterations"`
	// CriticalBatchGrowth is the diminishing rule's kc: full statistical
	// benefit from batch growth up to kc, none beyond. Required (≥ 1) by
	// diminishing and rejected elsewhere, so a typoed rule name cannot
	// silently drop it.
	CriticalBatchGrowth float64 `json:"critical_batch_growth,omitempty"`
}

// convergenceRules is THE convergence-rule catalog — the only place mapping
// rule names to convergence.IterationRule constructors.
var convergenceRules = map[string]func(ConvergenceSpec) convergence.IterationRule{
	"linear": func(ConvergenceSpec) convergence.IterationRule { return convergence.LinearScalingRule },
	"sqrt":   func(ConvergenceSpec) convergence.IterationRule { return convergence.SqrtScalingRule },
	"diminishing": func(s ConvergenceSpec) convergence.IterationRule {
		return convergence.DiminishingRule(s.CriticalBatchGrowth)
	},
}

// Validate reports whether the convergence block is complete and consistent.
func (s ConvergenceSpec) Validate() error {
	if _, ok := convergenceRules[s.Rule]; !ok {
		return fmt.Errorf("registry: unknown convergence rule %q (known: %s)", s.Rule, joined(ConvergenceRules()))
	}
	if s.BaseIterations <= 0 || math.IsNaN(s.BaseIterations) || math.IsInf(s.BaseIterations, 0) {
		return fmt.Errorf("registry: convergence rule %q: base_iterations must be positive and finite, got %g",
			s.Rule, s.BaseIterations)
	}
	if s.Rule == "diminishing" {
		if s.CriticalBatchGrowth < 1 || math.IsNaN(s.CriticalBatchGrowth) || math.IsInf(s.CriticalBatchGrowth, 0) {
			return fmt.Errorf("registry: convergence rule diminishing needs critical_batch_growth ≥ 1, got %g",
				s.CriticalBatchGrowth)
		}
	} else if s.CriticalBatchGrowth != 0 {
		return fmt.Errorf("registry: convergence rule %q does not take critical_batch_growth", s.Rule)
	}
	return nil
}

// IterationRule resolves the spec's batch-to-iterations rule.
func (s ConvergenceSpec) IterationRule() (convergence.IterationRule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return convergenceRules[s.Rule](s), nil
}

// ConvergenceRules returns the cataloged rule names in stable order.
func ConvergenceRules() []string {
	return sortedKeys(convergenceRules)
}

// ---------------------------------------------------------------------------
// Workload families
// ---------------------------------------------------------------------------

// WorkloadSpec describes the algorithm side of a scenario. Which fields
// matter depends on Family; Families documents each.
type WorkloadSpec struct {
	// Family selects the model builder; empty means gd-strong. Families
	// lists the options.
	Family string `json:"family,omitempty"`

	// Architecture optionally names a cataloged network whose counted
	// training flops and parameters fill FlopsPerExample and Parameters
	// when those are zero (gradient-descent families).
	Architecture string `json:"architecture,omitempty"`
	// FlopsPerExample is C, the training cost of one example.
	FlopsPerExample float64 `json:"flops_per_example,omitempty"`
	// BatchSize is S (per worker under weak scaling).
	BatchSize float64 `json:"batch_size,omitempty"`
	// Parameters is W.
	Parameters float64 `json:"parameters,omitempty"`
	// PrecisionBits is the width of one shipped value; 0 means 32.
	PrecisionBits float64 `json:"precision_bits,omitempty"`

	// Graph describes the inference graph (graph-inference and mrf).
	Graph *GraphSpec `json:"graph,omitempty"`
	// States is S, the per-variable state count (mrf); 0 means 2.
	States int `json:"states,omitempty"`
	// OpsPerEdge is c(S), the per-edge operation count (graph-inference).
	OpsPerEdge float64 `json:"ops_per_edge,omitempty"`
	// Trials is the Monte-Carlo sample count; 0 means 3.
	Trials int `json:"trials,omitempty"`
	// Seed drives the Monte-Carlo assignments.
	Seed int64 `json:"seed,omitempty"`

	// ConvergencePenalty is the async-gd staleness penalty γ.
	ConvergencePenalty float64 `json:"convergence_penalty,omitempty"`
}

// maxMonteCarloTrials bounds scenario-driven Monte-Carlo sampling.
const maxMonteCarloTrials = 10_000

// IterationModel is the planner's view of one gradient-descent-shaped
// workload: the wall time of one iteration (one global update) and the
// effective-batch growth, both as functions of the worker count.
// convergence.TradeoffModel composes it with a cataloged iteration rule into
// time-to-accuracy.
type IterationModel struct {
	// Time is the per-iteration wall time at n workers.
	Time core.TimeFunc
	// BatchGrowth is k(n) = S_effective/S_base at n workers: n under weak
	// scaling (each worker adds a fixed per-worker batch), 1 for
	// fixed-total-batch strong scaling and for asynchronous updates
	// (applied one worker-batch at a time).
	BatchGrowth func(n int) float64
}

// BoundModel is a family's optimistic per-iteration decomposition for
// adaptive planning. The contract: for every worker count n in a scenario's
// range, the family's true per-iteration time satisfies
//
//	Time(n) ≥ Decreasing(n) + Increasing(n)
//
// with Decreasing non-increasing and Increasing non-decreasing in n. That
// monotone split lets the planner lower-bound time-to-accuracy over a whole
// worker interval [a, b] from the two endpoints alone —
// iters(b)·(Decreasing(b) + Increasing(a)) — in O(1) per interval and
// without touching the Monte-Carlo kernel, which is what makes it safe to
// discard a grid cell whose bound is already Pareto-dominated before
// evaluating it. For the synchronous gradient-descent families the
// decomposition is exact (compute term + communication term); for async-gd
// it is a conservative floor. BatchGrowth mirrors
// IterationModel.BatchGrowth so the bound's iteration count uses the same
// batch law as the real plan.
type BoundModel struct {
	// Decreasing is the non-increasing term (parallelizable compute).
	Decreasing core.TimeFunc
	// Increasing is the non-decreasing term (communication, staleness).
	Increasing core.TimeFunc
	// BatchGrowth is k(n), as in IterationModel.
	BatchGrowth func(n int) float64
	// Exact reports that Decreasing + Increasing equals the family's true
	// iteration time, not merely a floor. Exactness upgrades the
	// decomposition from a one-sided bound to the curve itself, which lets
	// the planner discard worker intervals whose lower bound already
	// exceeds the curve's minimum — they provably cannot contain the
	// optimum — and test domination of the optimum alone.
	Exact bool
}

// Family is one workload-family registry row.
type Family struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for catalogs and CLI help.
	Description string
	// Build constructs the core model for a validated spec. The graph
	// families bind ctx into the model so construction- and
	// evaluation-time kernel work (degree generation, Monte-Carlo
	// estimation) observes cancellation; the closed-form families ignore
	// it — their models never block.
	Build func(ctx context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error)
	// Iteration builds the per-iteration hook convergence-aware planning
	// composes with an iteration rule. Nil for families with no
	// iteration/batch notion (the graph-inference families), where the
	// planner falls back to per-iteration ranking.
	Iteration func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (IterationModel, error)
	// Bound builds the family's optimistic lower-bound decomposition for
	// adaptive planning. Nil for families without one (the graph-inference
	// families, whose compute term comes from the Monte-Carlo kernel the
	// bound must not touch); their cells are simply never pruned.
	Bound func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (BoundModel, error)
}

// familyAliases maps accepted spellings to canonical family names. The empty
// family and the legacy scaling words keep old scenario files working.
var familyAliases = map[string]string{
	"":          "gd-strong",
	"gd":        "gd-strong",
	"strong":    "gd-strong",
	"weak":      "gd-weak",
	"async":     "async-gd",
	"bp":        "graph-inference",
	"gi":        "graph-inference",
	"inference": "graph-inference",
}

// families is THE workload-family registry — the only place mapping family
// names to model constructors.
var families = map[string]Family{
	"gd-strong": {
		Name:        "gd-strong",
		Description: "strong-scaling gradient descent: t = C·S/(F·n) + t_cm(W, n)",
		Build: func(_ context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
			w, err := gdWorkload(name, spec)
			if err != nil {
				return core.Model{}, err
			}
			return gd.Model(w, node, protocol)
		},
		Iteration: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (IterationModel, error) {
			w, err := gdWorkload(name, spec)
			if err != nil {
				return IterationModel{}, err
			}
			m, err := gd.Model(w, node, protocol)
			if err != nil {
				return IterationModel{}, err
			}
			// The total batch is fixed, so one iteration is one pass over
			// it (the per-iteration model's own time) and growing the
			// cluster grows no batch: k(n) = 1.
			return IterationModel{Time: m.Time, BatchGrowth: fixedBatch}, nil
		},
		Bound: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (BoundModel, error) {
			w, f, err := gdBoundInputs(name, spec, node)
			if err != nil {
				return BoundModel{}, err
			}
			// Exact split of t(n) = C·S/(F·n) + t_cm(W, n): the compute
			// share shrinks with n, the collective grows with it.
			return BoundModel{
				Decreasing: func(n int) units.Seconds {
					return units.ComputeTime(w.FlopsPerExample*w.BatchSize/float64(n), f)
				},
				Increasing: func(n int) units.Seconds {
					return protocol.Time(w.ModelBits, n)
				},
				BatchGrowth: fixedBatch,
				Exact:       true,
			}, nil
		},
	},
	"gd-weak": {
		Name:        "gd-weak",
		Description: "weak-scaling gradient descent: fixed per-worker batch, per-instance time",
		Build: func(_ context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
			w, err := gdWorkload(name, spec)
			if err != nil {
				return core.Model{}, err
			}
			return gd.WeakScalingModel(w, node, protocol)
		},
		Iteration: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (IterationModel, error) {
			w, err := gdWorkload(name, spec)
			if err != nil {
				return IterationModel{}, err
			}
			if err := node.Validate(); err != nil {
				return IterationModel{}, err
			}
			f := node.EffectiveFlops()
			// Per-iteration wall time, not the weak-scaled per-instance
			// time: each worker computes its fixed batch S in parallel
			// (C·S/F regardless of n), then the cluster synchronizes. The
			// effective batch is n·S, so k(n) = n — exactly the regime the
			// batch-to-iterations rules describe.
			return IterationModel{
				Time: func(n int) units.Seconds {
					return units.ComputeTime(w.FlopsPerExample*w.BatchSize, f) + protocol.Time(w.ModelBits, n)
				},
				BatchGrowth: func(n int) float64 { return float64(n) },
			}, nil
		},
		Bound: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (BoundModel, error) {
			w, f, err := gdBoundInputs(name, spec, node)
			if err != nil {
				return BoundModel{}, err
			}
			// Exact split of the planner's weak-scaling iteration time:
			// fixed per-worker compute plus the growing collective.
			return BoundModel{
				Decreasing: func(int) units.Seconds {
					return units.ComputeTime(w.FlopsPerExample*w.BatchSize, f)
				},
				Increasing: func(n int) units.Seconds {
					return protocol.Time(w.ModelBits, n)
				},
				BatchGrowth: func(n int) float64 { return float64(n) },
				Exact:       true,
			}, nil
		},
	},
	"graph-inference": {
		Name:        "graph-inference",
		Description: "graphical-model inference: t_cp ∝ Monte-Carlo maxᵢEᵢ · ops/edge",
		Build:       buildGraphInference,
	},
	"mrf": {
		Name:        "mrf",
		Description: "pairwise-MRF belief propagation: ops/edge = c(S) = S + 2·(S + S²)",
		Build:       buildMRF,
	},
	"async-gd": {
		Name:        "async-gd",
		Description: "asynchronous gradient descent: pipelined updates, staleness-penalized speedup",
		Build: func(_ context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
			m, err := asyncModel(name, spec, node, protocol)
			if err != nil {
				return core.Model{}, err
			}
			return m.CoreModel(name), nil
		},
		Iteration: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (IterationModel, error) {
			m, err := asyncModel(name, spec, node, protocol)
			if err != nil {
				return IterationModel{}, err
			}
			// The effective per-update time already folds in the staleness
			// inflation; updates apply one worker-batch at a time, so the
			// batch the convergence rule sees never grows: k(n) = 1.
			return IterationModel{Time: m.CoreModel(name).Time, BatchGrowth: fixedBatch}, nil
		},
		Bound: func(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (BoundModel, error) {
			m, err := asyncModel(name, spec, node, protocol)
			if err != nil {
				return BoundModel{}, err
			}
			// The effective time is UpdateTime(n)·(1 + γ·staleness(n)).
			// UpdateTime is non-increasing (max of cycle/n and the
			// constant serving floor) and never below CommPerUpdate, so
			//
			//	t(n) ≥ UpdateTime(n) + CommPerUpdate·γ·staleness(n)
			//
			// with the first term non-increasing and the second —
			// staleness grows with n — non-decreasing: a conservative
			// floor rather than the exact product.
			return BoundModel{
				Decreasing: m.UpdateTime,
				Increasing: func(n int) units.Seconds {
					return units.Seconds(float64(m.CommPerUpdate) * m.ConvergencePenalty * m.Staleness(n))
				},
				BatchGrowth: fixedBatch,
			}, nil
		},
	},
}

// fixedBatch is the batch-growth law of families whose effective batch does
// not grow with the cluster: k(n) = 1.
func fixedBatch(int) float64 { return 1 }

// gdBoundInputs resolves the workload and effective flops the
// gradient-descent bound hooks share.
func gdBoundInputs(name string, spec WorkloadSpec, node hardware.Node) (gd.Workload, units.Flops, error) {
	w, err := gdWorkload(name, spec)
	if err != nil {
		return gd.Workload{}, 0, err
	}
	if err := node.Validate(); err != nil {
		return gd.Workload{}, 0, err
	}
	return w, node.EffectiveFlops(), nil
}

// asyncModel assembles the asynchronous-SGD model behind the async-gd
// family's Build and Iteration hooks.
func asyncModel(name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (asyncgd.Model, error) {
	w, err := gdWorkload(name, spec)
	if err != nil {
		return asyncgd.Model{}, err
	}
	m := asyncgd.Model{
		ComputePerBatch: units.ComputeTime(w.FlopsPerExample*w.BatchSize, node.EffectiveFlops()),
		// One worker↔parameter-server exchange, priced as the protocol's
		// two-party time.
		CommPerUpdate:      protocol.Time(w.ModelBits, 2),
		ConvergencePenalty: spec.ConvergencePenalty,
	}
	if err := m.Validate(); err != nil {
		return asyncgd.Model{}, err
	}
	return m, nil
}

// gdWorkload assembles the gd.Workload a gradient-descent-shaped spec
// describes, resolving an architecture preset when one is named.
func gdWorkload(name string, spec WorkloadSpec) (gd.Workload, error) {
	c, w := spec.FlopsPerExample, spec.Parameters
	if spec.Architecture != "" {
		net, err := Architecture(spec.Architecture)
		if err != nil {
			return gd.Workload{}, err
		}
		summary, err := net.Summarize()
		if err != nil {
			return gd.Workload{}, err
		}
		if c == 0 {
			c = float64(summary.TrainingFlops())
		}
		if w == 0 {
			w = float64(summary.Weights)
		}
	}
	precision := spec.PrecisionBits
	if precision == 0 {
		precision = 32
	}
	if precision < 0 {
		return gd.Workload{}, fmt.Errorf("registry: workload %q: negative precision", name)
	}
	wl := gd.Workload{
		Name:            name,
		FlopsPerExample: c,
		BatchSize:       spec.BatchSize,
		ModelBits:       units.Bits(precision * w),
	}
	if err := wl.Validate(); err != nil {
		return gd.Workload{}, err
	}
	return wl, nil
}

// buildGraphInference is the graph-inference family's model constructor.
func buildGraphInference(ctx context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
	if spec.OpsPerEdge <= 0 {
		return core.Model{}, fmt.Errorf("registry: family graph-inference: ops_per_edge must be positive, got %g", spec.OpsPerEdge)
	}
	return graphModel(ctx, name, spec, spec.OpsPerEdge, node, protocol)
}

// buildMRF is the mrf family's model constructor.
func buildMRF(ctx context.Context, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
	states := spec.States
	if states == 0 {
		states = 2
	}
	if states < 2 {
		return core.Model{}, fmt.Errorf("registry: family mrf: states %d < 2", states)
	}
	return graphModel(ctx, name, spec, bp.OpsPerEdge(states), node, protocol)
}

// graphModel builds the §IV-B inference model for the two graph families:
// computation from the memoized Monte-Carlo maxᵢEᵢ estimate, communication
// from the protocol moving every vertex's S-state belief (zero under the
// paper's shared-memory assumption).
func graphModel(ctx context.Context, name string, spec WorkloadSpec, opsPerEdge float64, node hardware.Node, protocol comm.Model) (core.Model, error) {
	if spec.Graph == nil {
		return core.Model{}, fmt.Errorf("registry: workload %q: graph families need a graph spec", name)
	}
	trials := spec.Trials
	if trials == 0 {
		trials = 3
	}
	if trials < 0 || trials > maxMonteCarloTrials {
		return core.Model{}, fmt.Errorf("registry: workload %q: trials %d outside [1, %d]", name, trials, maxMonteCarloTrials)
	}
	entry, err := graphDegrees(ctx, *spec.Graph)
	if err != nil {
		return core.Model{}, err
	}
	model, err := graphInferenceModel(ctx, name, entry, opsPerEdge, node.EffectiveFlops(), trials, spec.Seed)
	if err != nil {
		return core.Model{}, err
	}
	if protocol != nil {
		precision := spec.PrecisionBits
		if precision == 0 {
			precision = 32
		}
		states := spec.States
		if states == 0 {
			states = 2
		}
		payload := units.Bits(precision * float64(states) * float64(len(entry.degrees)))
		model.Communication = func(n int) units.Seconds {
			return protocol.Time(payload, n)
		}
	}
	return model, nil
}

// GraphInferenceModelCtx builds the paper's graphical-model inference
// model (§IV-B): computation proportional to the Monte-Carlo estimate of
// the maximum per-worker edge count for the given degree sequence. The
// estimates come from the process-wide kernel cache (see cache.go), keyed
// by (degree-sequence fingerprint, worker count, trials, seed), so
// identical estimates are computed exactly once across all model instances,
// sweep cells, suites and planner probes — single-flight, with the
// Monte-Carlo trials behind a fresh estimate sharding across the shared
// parallelism budget. Each trial draws from a partition.TrialSeed stream
// hashed from (seed, trial) alone — common random numbers across worker
// counts — so a whole worker set can be filled from one batched RNG pass
// (see WithKernelWorkerSet) and the model output is bit-identical at any
// parallelism, batched or not. Degenerate inputs are rejected here
// rather than surfacing as infinite speedups later; the one failure left at
// evaluation time — a non-positive worker count passed straight to
// Model.Time — panics with the estimator's error instead of silently
// pricing the point at +Inf, and the suite/planner evaluators convert that
// panic into the cell's error.
//
// The evaluation context is bound into the model at construction:
// Model.Time is context-blind, so the kernel closure captures ctx and
// surfaces cancellation the same way it surfaces estimator errors — a
// panic carrying the (wrapped) context error, which the suite/planner
// evaluators unwrap into the cell's cancelled result. Cancellation reaches
// both the Monte-Carlo trial loop (checked between trials) and waits on
// another goroutine's in-flight kernel; a cancelled kernel is never
// cached, so the next un-cancelled caller recomputes cleanly.
//
// Every call fingerprints the degrees slice (memo.HashInt32s) to key its
// estimates; graph-family models built through BuildModelCtx skip that and
// reuse the fingerprint the degree cache computed when it generated the
// sequence. The slice is sampled live at evaluation: the caller must not
// mutate it afterwards (the slices GraphDegreesCtx returns are shared
// read-only already), or the shared cache could be poisoned with estimates
// keyed under the original contents.
func GraphInferenceModelCtx(ctx context.Context, name string, degrees []int32, opsPerEdge float64, f units.Flops, trials int, seed int64) (core.Model, error) {
	fnv, mix := memo.HashInt32s(degrees)
	return graphInferenceModel(ctx, name, degreeEntry{degrees: degrees, fnv: fnv, mix: mix}, opsPerEdge, f, trials, seed)
}

// graphInferenceModel is GraphInferenceModelCtx over a degree sequence
// whose fingerprint is already known.
func graphInferenceModel(ctx context.Context, name string, entry degreeEntry, opsPerEdge float64, f units.Flops, trials int, seed int64) (core.Model, error) {
	degrees, fnv, mix := entry.degrees, entry.fnv, entry.mix
	if len(degrees) == 0 {
		return core.Model{}, fmt.Errorf("registry: graph inference %q: empty degree sequence", name)
	}
	if opsPerEdge <= 0 || math.IsNaN(opsPerEdge) || math.IsInf(opsPerEdge, 0) {
		return core.Model{}, fmt.Errorf("registry: graph inference %q: ops per edge must be positive and finite, got %g", name, opsPerEdge)
	}
	if f <= 0 {
		return core.Model{}, fmt.Errorf("registry: graph inference %q: flops must be positive, got %v", name, f)
	}
	if trials < 1 {
		return core.Model{}, fmt.Errorf("registry: graph inference %q: trials %d < 1", name, trials)
	}
	keyFor := func(n int) estimateKey {
		return estimateKey{fnv: fnv, mix: mix, vertices: len(degrees), workers: n, trials: trials, seed: seed}
	}
	// fill returns the estimates of keys (ascending workers) through the
	// estimate cache. Only the missing keys reach the kernel, all of them
	// in one common-random-numbers pass, so the span and the process-wide
	// compute-time accumulator measure actual kernel work — hits and
	// single-flight waits cost neither. The kernel runs once per fill: it
	// fails only on bad input or cancellation, and a failed fill leaves no
	// cache entry, so the next caller computes afresh.
	fill := func(keys []estimateKey) ([]float64, error) {
		return estimateCache.DoBatchCtx(ctx, keys, func(missing []estimateKey) ([]float64, error) {
			kstart := time.Now()
			kctx, kspan := obs.Start(ctx, "kernel")
			kspan.SetInt("batch", int64(len(missing)))
			kspan.SetInt("workers", int64(missing[len(missing)-1].workers))
			kspan.SetInt("trials", int64(trials))
			kspan.SetInt("vertices", int64(len(degrees)))
			defer func() {
				kspan.End()
				kernelComputeNanos.Add(int64(time.Since(kstart)))
			}()
			wcounts := make([]int, len(missing))
			for i, k := range missing {
				wcounts[i] = k.workers
			}
			// The fault hook fires per key, so a chaos hook targeting one
			// worker count sees its coordinates inside a batch too, and
			// every key sees the fill (the first fault fails it).
			var err error
			for _, k := range missing {
				if ferr := injectKernelFault(kctx, k.call()); ferr != nil && err == nil {
					err = ferr
				}
			}
			var ests []partition.Estimate
			if err == nil {
				ests, err = partition.MonteCarloMaxEdgesBatch(kctx, degrees, wcounts, trials, seed)
			}
			if err != nil {
				kspan.SetError(err)
				return nil, err
			}
			out := make([]float64, len(missing))
			for i, k := range missing {
				out[i] = ests[i].MaxEdges
				// One observation per key, never per batch: the checkpoint
				// journal must replay estimate by estimate (SeedEstimate).
				observeKernel(k.call(), out[i])
			}
			if len(keys) == 1 {
				kernelSingles.Add(1)
			} else {
				kernelBatches.Add(1)
				kernelBatchKeys.Add(int64(len(missing)))
			}
			return out, nil
		})
	}
	// The batch set is the full worker axis the evaluation spine announced
	// via WithKernelWorkerSet (scenario.ModelCtx sets it to the curve's
	// 1..MaxN range). The first sampled point inside the set fills every
	// point's estimate at once; points outside the set — and models built
	// without a hint — fill their own key on each call. Either way the
	// estimates are bit-identical; the hint only changes how many kernel
	// passes they cost.
	batchSet := KernelWorkerSet(ctx)
	inBatch := make(map[int]bool, len(batchSet))
	for _, w := range batchSet {
		inBatch[w] = true
	}
	var (
		batchOnce sync.Once
		batchVals map[int]float64
		batchErr  error
	)
	maxEdges := func(n int) float64 {
		// Guard before touching the cache so a misuse cannot occupy a slot.
		if n < 1 {
			panic(fmt.Errorf("registry: graph inference %q: worker count %d < 1", name, n))
		}
		if len(batchSet) > 1 && inBatch[n] {
			// One fill per model instance (sync.Once) puts the whole set in
			// a local snapshot, so the other curve points ask the shared
			// cache nothing at all. A failed fill fails this model instance
			// only; the cache dropped the failed entries, so the next model
			// built on these coordinates refills them.
			batchOnce.Do(func() {
				keys := make([]estimateKey, len(batchSet))
				for i, w := range batchSet {
					keys[i] = keyFor(w)
				}
				vals, err := fill(keys)
				if err != nil {
					batchErr = err
					return
				}
				batchVals = make(map[int]float64, len(batchSet))
				for i, w := range batchSet {
					batchVals[w] = vals[i]
				}
			})
			if batchErr != nil {
				panic(fmt.Errorf("registry: graph inference %q: %w", name, batchErr))
			}
			return batchVals[n]
		}
		vals, err := fill([]estimateKey{keyFor(n)})
		if err != nil {
			panic(fmt.Errorf("registry: graph inference %q: %w", name, err))
		}
		return vals[0]
	}
	return core.Model{
		Name: name,
		Computation: func(n int) units.Seconds {
			return units.ComputeTime(maxEdges(n)*opsPerEdge, f)
		},
	}, nil
}

// CanonicalFamily resolves a family name or alias to its registry key.
func CanonicalFamily(name string) (string, error) {
	if canonical, ok := familyAliases[name]; ok {
		name = canonical
	}
	if _, ok := families[name]; !ok {
		return "", fmt.Errorf("registry: unknown workload family %q (known: %s)", name, joined(Families()))
	}
	return name, nil
}

// LookupFamily returns the registry row for a family name or alias.
func LookupFamily(name string) (Family, error) {
	canonical, err := CanonicalFamily(name)
	if err != nil {
		return Family{}, err
	}
	return families[canonical], nil
}

// Families returns the canonical workload-family names in stable order.
func Families() []string {
	return sortedKeys(families)
}

// BuildModelCtx constructs the core model one (family, workload, hardware,
// protocol) point describes — the single construction path behind the
// scenario schema, the CLIs and the experiment harness — with the
// evaluation context bound into the model (see Family.Build).
func BuildModelCtx(ctx context.Context, family, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (core.Model, error) {
	f, err := LookupFamily(family)
	if err != nil {
		return core.Model{}, err
	}
	return f.Build(ctx, name, spec, node, protocol)
}

// BuildIterationModel constructs the per-iteration planning hook of a
// family, resolving aliases like LookupFamily. ok is false (with a nil
// error) for families that have no iteration/batch notion — the
// graph-inference families — where convergence-aware planning has no meaning
// and callers fall back to per-iteration ranking.
func BuildIterationModel(family, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (m IterationModel, ok bool, err error) {
	f, err := LookupFamily(family)
	if err != nil {
		return IterationModel{}, false, err
	}
	if f.Iteration == nil {
		return IterationModel{}, false, nil
	}
	m, err = f.Iteration(name, spec, node, protocol)
	if err != nil {
		return IterationModel{}, false, err
	}
	return m, true, nil
}

// BuildBoundModel constructs the optimistic lower-bound decomposition of a
// family, resolving aliases like LookupFamily. ok is false (with a nil
// error) for families without a bound hook — the graph-inference families,
// whose compute term lives behind the Monte-Carlo kernel — whose cells the
// adaptive planner then never prunes.
func BuildBoundModel(family, name string, spec WorkloadSpec, node hardware.Node, protocol comm.Model) (b BoundModel, ok bool, err error) {
	f, err := LookupFamily(family)
	if err != nil {
		return BoundModel{}, false, err
	}
	if f.Bound == nil {
		return BoundModel{}, false, nil
	}
	b, err = f.Bound(name, spec, node, protocol)
	if err != nil {
		return BoundModel{}, false, err
	}
	return b, true, nil
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// joined renders a name list for error messages.
func joined(names []string) string {
	return strings.Join(names, ", ")
}
