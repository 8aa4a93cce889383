// Package experiments regenerates every table and figure of the paper's
// evaluation, pairing each analytic model with its simulated "experimental"
// counterpart and reporting the same headline quantities the paper reports
// (speedup curves, optima, MAPE). It is the integration layer the
// command-line tools and benchmarks drive.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dmlscale/internal/textio"
)

// Comparison pairs a quantity the paper reports with the value this
// reproduction measures.
type Comparison struct {
	Quantity string
	Paper    string
	Measured string
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment key (fig1, tab1, fig2, ...).
	ID string
	// Title is the paper artifact being reproduced.
	Title string
	// Description summarizes workload and parameters.
	Description string
	// Table holds the regenerated rows/series.
	Table *textio.Table
	// Plot is an optional ASCII rendering of the figure.
	Plot string
	// Metrics holds headline numbers keyed by name.
	Metrics map[string]float64
	// PaperComparison records paper-vs-measured values.
	PaperComparison []Comparison
}

// Render writes the result as readable text.
func (r Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&sb, "%s\n", r.Description)
	}
	sb.WriteString("\n")
	if r.Table != nil {
		sb.WriteString(r.Table.String())
		sb.WriteString("\n")
	}
	if r.Plot != "" {
		sb.WriteString(r.Plot)
		sb.WriteString("\n")
	}
	if len(r.PaperComparison) > 0 {
		cmp := textio.NewTable("quantity", "paper", "this reproduction")
		for _, c := range r.PaperComparison {
			cmp.AddRow(c.Quantity, c.Paper, c.Measured)
		}
		sb.WriteString(cmp.String())
	}
	return sb.String()
}

// Options tunes experiment fidelity against runtime.
type Options struct {
	// Fig4Vertices scales the belief-propagation graph; 0 means the
	// paper's full 16,259,408 vertices. The default configurations use
	// 1.6M — the paper's own first downscale — to keep runs interactive.
	Fig4Vertices int
	// MonteCarloTrials is the paper's random-assignment sample count.
	MonteCarloTrials int
	// SimIterations is how many iterations/steps the discrete-event
	// simulations average per point.
	SimIterations int
	// Seed drives every randomized component.
	Seed int64
}

// DefaultOptions returns interactive-speed settings.
func DefaultOptions() Options {
	return Options{
		Fig4Vertices:     1600000,
		MonteCarloTrials: 3,
		SimIterations:    3,
		Seed:             42,
	}
}

// QuickOptions returns reduced settings for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Fig4Vertices:     16000,
		MonteCarloTrials: 2,
		SimIterations:    1,
		Seed:             42,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Fig4Vertices < 0 {
		o.Fig4Vertices = d.Fig4Vertices
	}
	if o.MonteCarloTrials <= 0 {
		o.MonteCarloTrials = d.MonteCarloTrials
	}
	if o.SimIterations <= 0 {
		o.SimIterations = d.SimIterations
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Runner produces one experiment result.
type Runner func(Options) (Result, error)

// runners maps experiment IDs to runners. Populated by init functions in
// the per-experiment files.
var runners = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := runners[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	runners[id] = r
}

// IDs returns the registered experiment IDs in stable order.
func IDs() []string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (Result, error) {
	r, ok := runners[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(opts)
}
