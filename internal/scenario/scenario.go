// Package scenario serializes complete modeling scenarios — workload family,
// hardware, communication protocol and evaluation range — as JSON, the
// integration hook the paper's conclusion asks for ("integrate the
// estimation software with such tools as Spark, Hadoop, and Tensorflow"):
// a deployment tool emits a scenario file, this package turns it into a
// speedup model.
//
// Every name in a scenario resolves through package registry, the module's
// single catalog, so a scenario file can describe any model family the
// library exposes: strong- and weak-scaling gradient descent, graphical
// inference, pairwise-MRF belief propagation and asynchronous gradient
// descent, over any cataloged or composed protocol and any hardware preset
// or custom node.
//
// Beyond single scenarios, a Suite declares many at once — an explicit list,
// a parameter sweep (bandwidth × protocol × precision × worker range), or
// both — and evaluates them concurrently; see suite.go.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dmlscale/internal/core"
	"dmlscale/internal/registry"
)

// Specs are the registry's JSON-friendly descriptions; the scenario schema
// embeds them verbatim so the catalog and the file format cannot drift.
type (
	// WorkloadSpec selects a workload family and its figures.
	WorkloadSpec = registry.WorkloadSpec
	// HardwareSpec names a preset or describes a custom node.
	HardwareSpec = registry.HardwareSpec
	// ProtocolSpec selects and parameterizes a comm.Model, recursively
	// for composed protocols.
	ProtocolSpec = registry.ProtocolSpec
	// GraphSpec describes the inference graph of the graph families.
	GraphSpec = registry.GraphSpec
	// ConvergenceSpec names a batch-to-iterations rule and the iteration
	// budget, the block that turns per-iteration curves into
	// time-to-accuracy plans.
	ConvergenceSpec = registry.ConvergenceSpec
)

// Scenario is the on-disk description of one modeling run.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Workload holds the family and its complexity figures.
	Workload WorkloadSpec `json:"workload"`
	// Hardware describes one worker node.
	Hardware HardwareSpec `json:"hardware"`
	// Protocol selects the communication model.
	Protocol ProtocolSpec `json:"protocol"`
	// Scaling is the legacy family selector: "strong" (default) or
	// "weak". Workload.Family supersedes it; setting both to conflicting
	// values is an error.
	Scaling string `json:"scaling,omitempty"`
	// MaxWorkers bounds curve evaluation; 0 means 16.
	MaxWorkers int `json:"max_workers,omitempty"`
	// Convergence optionally describes how the iteration count responds to
	// the growing effective batch, letting the planner rank this scenario
	// by time-to-accuracy instead of per-iteration speedup. Per-iteration
	// evaluation (EvaluateSuite) ignores it.
	Convergence *ConvergenceSpec `json:"convergence,omitempty"`
}

// Family resolves the canonical workload family this scenario models,
// reconciling the legacy Scaling field with Workload.Family.
func (s Scenario) Family() (string, error) {
	name := s.Workload.Family
	switch s.Scaling {
	case "":
	case "strong", "weak":
		legacy, err := registry.CanonicalFamily(s.Scaling)
		if err != nil {
			return "", err
		}
		if name == "" {
			name = legacy
			break
		}
		canonical, err := registry.CanonicalFamily(name)
		if err != nil {
			return "", fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if canonical != legacy {
			return "", fmt.Errorf("scenario %q: scaling %q conflicts with workload family %q", s.Name, s.Scaling, name)
		}
	default:
		return "", fmt.Errorf("scenario %q: scaling must be strong or weak, got %q", s.Name, s.Scaling)
	}
	canonical, err := registry.CanonicalFamily(name)
	if err != nil {
		return "", fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return canonical, nil
}

// Validate reports whether the scenario is complete and consistent. It
// resolves every name through the registry and builds the model once, so a
// scenario that validates is a scenario that evaluates; the optional
// convergence block is validated alongside even though only the planner
// reads it.
func (s Scenario) Validate() error {
	if s.Convergence != nil {
		if err := s.Convergence.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	_, err := s.Model()
	return err
}

// MaxN returns the evaluation bound with its default.
func (s Scenario) MaxN() int {
	if s.MaxWorkers <= 0 {
		return 16
	}
	return s.MaxWorkers
}

// Workers returns the worker counts the scenario evaluates: 1..MaxN.
func (s Scenario) Workers() []int {
	return core.Range(1, s.MaxN())
}

// EvalKey fingerprints the scenario's canonical model inputs — everything
// the evaluated curve depends on and nothing it doesn't. The name is
// dropped (sweep cells differ in label even when they describe the same
// model), the legacy scaling alias folds into the canonical family, the
// worker bound resolves to its default, and the convergence block is
// dropped (per-iteration evaluation ignores it). The planner's refinement
// pass uses it to avoid re-synthesizing a grid point it already holds.
// Scenarios that do not resolve return "", which it never treats as a
// duplicate, so each reports its own error.
func (s Scenario) EvalKey() string {
	if s.Name == "" || s.MaxWorkers < 0 {
		return ""
	}
	family, err := s.Family()
	if err != nil {
		return ""
	}
	c := s
	c.Name = ""
	c.Scaling = ""
	c.Workload.Family = family
	c.MaxWorkers = s.MaxN()
	c.Convergence = nil
	key, err := json.Marshal(c)
	if err != nil {
		return ""
	}
	return string(key)
}

// Model builds the core model the scenario describes through the registry —
// the same construction path the CLIs and the experiment harness use.
func (s Scenario) Model() (core.Model, error) {
	return s.ModelCtx(context.Background())
}

// ModelCtx is Model with the evaluation context bound into the model (see
// registry.BuildModelCtx): kernel work behind the model's time functions —
// Monte-Carlo estimation, graph generation, single-flight cache waits —
// observes ctx and surfaces cancellation as the cell's error instead of
// running to completion.
func (s Scenario) ModelCtx(ctx context.Context) (core.Model, error) {
	if s.Name == "" {
		return core.Model{}, fmt.Errorf("scenario: missing name")
	}
	if s.MaxWorkers < 0 {
		return core.Model{}, fmt.Errorf("scenario %q: negative max workers", s.Name)
	}
	family, err := s.Family()
	if err != nil {
		return core.Model{}, err
	}
	node, err := registry.Node(s.Hardware)
	if err != nil {
		return core.Model{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	protocol, err := registry.Protocol(s.Protocol)
	if err != nil {
		return core.Model{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// Announce the curve's full worker axis to model construction: the
	// graph families batch-fill the whole set's Monte-Carlo estimates from
	// one common-random-numbers kernel pass on the first sampled point —
	// sweeps, suite cells and every planner probe (grid and refined alike)
	// route through here, so they all price their curves batched.
	ctx = registry.WithKernelWorkerSet(ctx, s.Workers())
	model, err := registry.BuildModelCtx(ctx, family, s.Name, s.Workload, node, protocol)
	if err != nil {
		return core.Model{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return model, nil
}

// Decode reads a scenario from JSON.
func Decode(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Encode writes the scenario as indented JSON.
func (s Scenario) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Load reads a scenario file.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// Save writes a scenario file.
func (s Scenario) Save(path string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return s.Encode(f)
}

// Fig2 is the paper's Fig. 2 setup as a scenario, both a usable default and
// a documentation example for the format.
func Fig2() Scenario {
	return Scenario{
		Name: "fully connected ANN on Spark (paper Fig. 2)",
		Workload: WorkloadSpec{
			FlopsPerExample: 6 * 12e6,
			BatchSize:       60000,
			Parameters:      12e6,
			PrecisionBits:   64,
		},
		Hardware: HardwareSpec{Preset: "xeon-e3-1240"},
		Protocol: ProtocolSpec{Kind: "spark", BandwidthBitsPerSec: 1e9},
		Scaling:  "strong",
	}
}

// Fig3 is the paper's Fig. 3 setup as a scenario.
func Fig3() Scenario {
	return Scenario{
		Name: "convolutional ANN sync SGD (paper Fig. 3)",
		Workload: WorkloadSpec{
			FlopsPerExample: 3 * 5e9,
			BatchSize:       128,
			Parameters:      25e6,
			PrecisionBits:   32,
		},
		Hardware:   HardwareSpec{Preset: "nvidia-k40"},
		Protocol:   ProtocolSpec{Kind: "two-stage-tree", BandwidthBitsPerSec: 1e9},
		Scaling:    "weak",
		MaxWorkers: 200,
	}
}

// Fig4 is the paper's Fig. 4 setup as a scenario: belief propagation on a
// DNS-like graph under the shared-memory assumption, downscaled to the
// paper's first validation size.
func Fig4() Scenario {
	return Scenario{
		Name: "loopy BP on DNS traffic graph (paper Fig. 4, 16K downscale)",
		Workload: WorkloadSpec{
			Family: "mrf",
			Graph:  &GraphSpec{Family: "dns", Vertices: 16000, Seed: 42},
			States: 2,
			Trials: 3,
		},
		Hardware:   HardwareSpec{Preset: "dl980-core"},
		Protocol:   ProtocolSpec{Kind: "shared-memory"},
		MaxWorkers: 80,
	}
}
