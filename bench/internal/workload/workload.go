// Package workload generates the benchmark's inputs from a seed. A workload
// is a set of files plus the HTTP requests that carry the same work; the
// programs under test see only these, so a seed always names the same
// inputs and another seed names different ones of the same size.
package workload

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// Workload names, in the order the benchmark runs them.
const (
	PlanGrid      = "plan-grid"
	SweepCommGrid = "sweep-comm-grid"
	ServeMix      = "serve-mix"
)

// Names lists every workload. None is a sweep whose time is mostly
// Monte-Carlo kernel: on a shared host the kernel's time swings by a third
// with its neighbours' load, too much for a gated metric (bench/README.md,
// "Noise"). The kernel runs once per sweep-comm-grid repetition, in
// serve-mix's cold class and in every traced run's layer probes.
var Names = []string{PlanGrid, SweepCommGrid, ServeMix}

// Rates is serve-mix's open-loop arrival-rate ladder, in requests per
// second. On one core the service keeps up at 20 and saturates between 40
// and 80, depending on the host's load, so the ladder brackets the highest
// rate that meets the latency limit.
var Rates = []int{20, 40, 80}

// ClosedLoop is the rate of the reference rung: one client sends each
// request when the previous answer arrives, so latency is the time one
// user waits with nothing queued ahead. Its latency is the gated one, and
// its first block of requests is the one the traced run replays.
const ClosedLoop = 0

// serve-mix request classes and their exact shares of every rung.
const (
	classPlanGridSmall = "plan-grid-small"
	classPlanExample   = "plan-example"
	classSweepPool     = "sweep-pool"
	classSweepExample  = "sweep-example"
	classSweepCold     = "sweep-cold"
)

var classShares = []struct {
	class   string
	percent int
}{
	{classPlanGridSmall, 30},
	{classPlanExample, 20},
	{classSweepPool, 30},
	{classSweepExample, 10},
	{classSweepCold, 10},
}

// Request is one HTTP request of a workload.
type Request struct {
	Class string          `json:"class"`
	Path  string          `json:"path"`
	Body  json.RawMessage `json:"body"`
	// Due is when an open-loop request should be sent, counted from its
	// rung's start.
	Due time.Duration `json:"due_ns,omitempty"`
}

// Rung is a run of requests: open-loop at Rate requests per second, in due
// order, or ClosedLoop.
type Rung struct {
	Rate     int       `json:"rate"`
	Requests []Request `json:"requests"`
}

// Inputs is everything one workload feeds the programs. Command lines name
// files relative to the work directory the files are written to.
type Inputs struct {
	Workload string `json:"workload"`
	// Files are the generated input files, keyed by name.
	Files map[string][]byte `json:"-"`
	// Command is a CLI workload's invocation: program name, then flags.
	Command []string `json:"command,omitempty"`
	// Setup is a CLI workload's one-cell invocation of the same program,
	// whose wall time is the workload's set-up time.
	Setup []string `json:"setup,omitempty"`
	// ServeFlags are the dmls-serve flags the workload needs beyond the
	// listen address and access log.
	ServeFlags []string `json:"serve_flags,omitempty"`
	// Prewarm requests run once the server is healthy, before any timing.
	Prewarm []Request `json:"prewarm,omitempty"`
	// Rungs is the workload as HTTP traffic: serve-mix's closed-loop
	// reference rung, then its rate ladder; a CLI workload's input as one
	// closed-loop request.
	Rungs []Rung `json:"rungs"`
	// ReplayRequests is how many of the closed-loop rung's requests the
	// traced run replays.
	ReplayRequests int `json:"replay_requests"`
	// Examples maps serve-mix classes to the CLI invocation whose stdout
	// their response bodies must equal byte for byte.
	Examples map[string][]string `json:"examples,omitempty"`
	// ParetoPruned and ParetoExhaustive plan the same suite with and
	// without pruning; pruning is exact, so their Pareto sets must match.
	ParetoPruned     []string `json:"pareto_pruned,omitempty"`
	ParetoExhaustive []string `json:"pareto_exhaustive,omitempty"`
	// ProbeGraph is the graph the kernel and registry probes run on: the
	// workload's own first graph, or a 100K-vertex one for plan-grid,
	// which has none.
	ProbeGraph GraphSpec `json:"probe_graph"`
}

// Replay returns the first ReplayRequests closed-loop reference requests,
// which the traced run's live server and in-process passes replay.
func (in Inputs) Replay() []Request {
	reqs := in.Rung(ClosedLoop).Requests
	return reqs[:min(len(reqs), in.ReplayRequests)]
}

// IsServe reports whether the workload is served traffic rather than a CLI
// invocation.
func (in Inputs) IsServe() bool { return len(in.Command) == 0 }

// Rung returns the rung at the given rate, or nil.
func (in Inputs) Rung(rate int) *Rung {
	for i := range in.Rungs {
		if in.Rungs[i].Rate == rate {
			return &in.Rungs[i]
		}
	}
	return nil
}

// Size scales the generated inputs.
type Size struct {
	// GridBandwidths and GridWorkerBounds are plan-grid's bandwidth and
	// worker-bound axis lengths (protocols, hardware and precisions are
	// fixed at 5, 3 and 5).
	GridBandwidths, GridWorkerBounds int
	// GraphVertices sizes sweep-comm-grid's graph.
	GraphVertices int
	// PoolVertices sizes every serve-mix graph.
	PoolVertices int
	// SmallBandwidths is the bandwidth axis length of a plan-grid-small
	// request (5 × 3 × SmallBandwidths × 5 × 2 cells).
	SmallBandwidths int
	// RungRequests is the number of requests per serve-mix block: each
	// open-loop rung is one block, and the closed-loop rung is ClosedBlocks
	// of them, each in exact class shares. At 200 the tail percentile with
	// ten samples beyond it is p95. The traced run replays one block.
	RungRequests, ClosedBlocks int
}

// Full is the benchmark's size: a 10,800-cell plan grid, a 1M-vertex graph,
// 900-cell served plans, 200 requests per open-loop rung and 1,000 in the
// closed-loop one.
var Full = Size{GridBandwidths: 18, GridWorkerBounds: 8, GraphVertices: 1_000_000,
	PoolVertices: 100_000, SmallBandwidths: 6, RungRequests: 200, ClosedBlocks: 5}

// Smoke is every workload in miniature, for tests.
var Smoke = Size{GridBandwidths: 3, GridWorkerBounds: 2, GraphVertices: 20_000,
	PoolVertices: 20_000, SmallBandwidths: 1, RungRequests: 10, ClosedBlocks: 2}

//go:embed examples/*.json
var examples embed.FS

// Generate builds the named workload's inputs from seed.
func Generate(name string, seed int64, size Size) (Inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	g := &gen{r: rng{s: uint64(seed) ^ h.Sum64()}, size: size, files: map[string][]byte{}}
	var in Inputs
	var err error
	switch name {
	case PlanGrid:
		in, err = g.planGrid()
	case SweepCommGrid:
		in, err = g.sweepCommGrid()
	case ServeMix:
		in, err = g.serveMix()
	default:
		return Inputs{}, fmt.Errorf("workload: unknown workload %q (known: %v)", name, Names)
	}
	if err != nil {
		return Inputs{}, err
	}
	in.Workload = name
	in.Files = g.files
	return in, nil
}

// GraphSpec names a generated graph, as the suite schema does.
type GraphSpec struct {
	Family   string `json:"family"`
	Vertices int    `json:"vertices"`
	Seed     int64  `json:"seed,omitempty"`
}

// The suite schema subset the generators write. Field names and omitempty
// match the programs' strict decoder, which rejects unknown fields.
type (
	suite struct {
		Name      string     `json:"name"`
		Objective string     `json:"objective,omitempty"`
		Scenarios []scenario `json:"scenarios,omitempty"`
		Sweep     *sweep     `json:"sweep,omitempty"`
	}
	sweep struct {
		Base       scenario  `json:"base"`
		Bandwidths []float64 `json:"bandwidths_bits_per_sec,omitempty"`
		Protocols  []string  `json:"protocols,omitempty"`
		Hardware   []string  `json:"hardware,omitempty"`
		Precisions []float64 `json:"precisions_bits,omitempty"`
		MaxWorkers []int     `json:"max_workers,omitempty"`
	}
	scenario struct {
		Name        string       `json:"name"`
		Workload    workloadSpec `json:"workload"`
		Hardware    preset       `json:"hardware"`
		Protocol    protocol     `json:"protocol"`
		Scaling     string       `json:"scaling,omitempty"`
		MaxWorkers  int          `json:"max_workers,omitempty"`
		Convergence *convergence `json:"convergence,omitempty"`
	}
	workloadSpec struct {
		Family          string     `json:"family,omitempty"`
		FlopsPerExample float64    `json:"flops_per_example,omitempty"`
		BatchSize       float64    `json:"batch_size,omitempty"`
		Parameters      float64    `json:"parameters,omitempty"`
		PrecisionBits   float64    `json:"precision_bits,omitempty"`
		Graph           *GraphSpec `json:"graph,omitempty"`
		States          int        `json:"states,omitempty"`
		Trials          int        `json:"trials,omitempty"`
		Seed            int64      `json:"seed,omitempty"`
	}
	preset struct {
		Preset string `json:"preset"`
	}
	protocol struct {
		Kind      string  `json:"kind"`
		Bandwidth float64 `json:"bandwidth_bits_per_sec,omitempty"`
	}
	convergence struct {
		Rule                string  `json:"rule"`
		BaseIterations      float64 `json:"base_iterations"`
		CriticalBatchGrowth float64 `json:"critical_batch_growth,omitempty"`
	}
	// requestBody is the /v1/sweep and /v1/plan body: the suite plus the
	// planner knobs the matching CLI flags set.
	requestBody struct {
		Suite    json.RawMessage `json:"suite"`
		Adaptive bool            `json:"adaptive,omitempty"`
		Refine   int             `json:"refine,omitempty"`
	}
)

var (
	gridProtocols  = []string{"tree", "two-stage-tree", "spark", "ring", "pipelined-tree"}
	gridHardware   = []string{"xeon-e3-1240", "nvidia-k40", "dl980-core"}
	gridPrecisions = []float64{8, 16, 32, 64, 80}
	commPrecisions = []float64{8, 16, 32, 64, 80, 128}
)

// gen carries one workload's random stream and its growing file set.
type gen struct {
	r     rng
	size  Size
	files map[string][]byte
}

// file stores v as an indented JSON file and returns its raw bytes.
func (g *gen) file(name string, v any) ([]byte, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("workload: encode %s: %w", name, err)
	}
	g.files[name] = append(raw, '\n')
	return raw, nil
}

// jitter returns v scaled by a seeded factor in [1, 1+spread): enough to
// make each seed's inputs distinct while keeping the work they cause, and
// so the measured times, nearly the same.
func (g *gen) jitter(v, spread float64) float64 {
	return v * (1 + spread*g.r.float())
}

// graphSeed returns a fresh graph or Monte-Carlo seed.
func (g *gen) graphSeed() int64 { return 1 + int64(g.r.next()>>34) }

// gdBase is the convergence-aware gradient-descent cell the plan grids
// sweep: the paper's convolutional network, with seeded convergence
// constants.
func (g *gen) gdBase() scenario {
	return scenario{
		Name:       "conv ANN",
		Workload:   workloadSpec{FlopsPerExample: 15e9, BatchSize: 128, Parameters: 25e6, PrecisionBits: 32},
		Hardware:   preset{Preset: "nvidia-k40"},
		Protocol:   protocol{Kind: "two-stage-tree", Bandwidth: 1e9},
		Scaling:    "weak",
		MaxWorkers: 128,
		Convergence: &convergence{
			Rule:                "diminishing",
			BaseIterations:      math.Round(g.jitter(60000, 0.05)),
			CriticalBatchGrowth: g.jitter(24, 0.05),
		},
	}
}

// planSweep is a five-axis convergence-aware grid over gdBase with the
// bandwidth axis starting at a seeded offset.
func (g *gen) planSweep(name string, bandwidths, workerBounds int) suite {
	bounds := make([]int, workerBounds)
	for i := range bounds {
		bounds[i] = 128 * (i + 1)
	}
	return suite{
		Name:      name,
		Objective: "pareto",
		Sweep: &sweep{
			Base:       g.gdBase(),
			Protocols:  gridProtocols,
			Hardware:   gridHardware,
			Bandwidths: geometric(g.jitter(2e8, 0.05), 1.5, bandwidths),
			Precisions: gridPrecisions,
			MaxWorkers: bounds,
		},
	}
}

// graphCell is one Monte-Carlo graph-inference cell: belief propagation on
// a DNS-like graph over a 64-point worker axis.
func graphCell(name string, vertices int, graphSeed, mcSeed int64, p protocol) scenario {
	return scenario{
		Name: name,
		Workload: workloadSpec{
			Family: "mrf",
			Graph:  &GraphSpec{Family: "dns", Vertices: vertices, Seed: graphSeed},
			States: 2,
			Trials: 3,
			Seed:   mcSeed,
		},
		Hardware:   preset{Preset: "dl980-core"},
		Protocol:   p,
		MaxWorkers: 64,
	}
}

// request wraps a suite document as an HTTP request.
func request(class, path string, doc []byte, adaptive bool, refine int) (Request, error) {
	body, err := json.Marshal(requestBody{Suite: doc, Adaptive: adaptive, Refine: refine})
	if err != nil {
		return Request{}, fmt.Errorf("workload: encode %s request: %w", class, err)
	}
	return Request{Class: class, Path: path, Body: body}, nil
}

// cliInputs fills a CLI workload's invocation, its one-cell set-up
// invocation and the same work as one HTTP request.
func cliInputs(program, suiteFile string, doc []byte, setupFile string, probe GraphSpec, flags ...string) (Inputs, error) {
	path, adaptive, refine := "/v1/sweep", false, 0
	if program == "dmls-plan" {
		path, adaptive, refine = "/v1/plan", true, 2
	}
	req, err := request("cli", path, doc, adaptive, refine)
	if err != nil {
		return Inputs{}, err
	}
	return Inputs{
		Command: append([]string{program, "-suite", suiteFile}, flags...),
		Setup:   []string{program, "-suite", setupFile, "-format", "json"},
		// The served form of a CLI workload is one request as large as the
		// whole suite; lift the server's grid cap so it is accepted.
		ServeFlags:     []string{"-max-cells", "262144"},
		Rungs:          []Rung{{Rate: ClosedLoop, Requests: []Request{req}}},
		ReplayRequests: 1,
		ProbeGraph:     probe,
	}, nil
}

// planGrid: the 10,800-cell adaptive planning grid. The planner bounds,
// prunes and refines; no cell touches the Monte-Carlo kernel.
func (g *gen) planGrid() (Inputs, error) {
	doc, err := g.file("plan-grid.json", g.planSweep("plan-grid", g.size.GridBandwidths, g.size.GridWorkerBounds))
	if err != nil {
		return Inputs{}, err
	}
	if _, err := g.file("plan-grid-setup.json", g.gdBase()); err != nil {
		return Inputs{}, err
	}
	probe := GraphSpec{Family: "dns", Vertices: g.size.PoolVertices, Seed: g.graphSeed()}
	in, err := cliInputs("dmls-plan", "plan-grid.json", doc, "plan-grid-setup.json", probe, "-adaptive", "-refine", "2", "-format", "json")
	if err != nil {
		return Inputs{}, err
	}
	// Refinement adds frontier points the exhaustive grid lacks, so the
	// check plans without it. CSV keeps it cheap: one row per cell.
	in.ParetoPruned = []string{"dmls-plan", "-suite", "plan-grid.json", "-adaptive", "-format", "csv"}
	in.ParetoExhaustive = []string{"dmls-plan", "-suite", "plan-grid.json", "-format", "csv"}
	return in, nil
}

// sweepCommGrid: one graph swept over communication axes only, so the
// kernel runs once and every other estimate is a cache hit.
func (g *gen) sweepCommGrid() (Inputs, error) {
	s := suite{
		Name: "sweep-comm-grid",
		Sweep: &sweep{
			Base:       graphCell("bp", g.size.GraphVertices, g.graphSeed(), g.graphSeed(), protocol{Kind: "ring", Bandwidth: 1e9}),
			Protocols:  gridProtocols,
			Bandwidths: geometric(g.jitter(1e8, 0.05), 2, 8),
			Precisions: commPrecisions,
		},
	}
	doc, err := g.file("sweep-comm-grid.json", s)
	if err != nil {
		return Inputs{}, err
	}
	if _, err := g.file("sweep-setup.json", graphCell("setup", 1000, g.graphSeed(), g.graphSeed(), protocol{Kind: "shared-memory"})); err != nil {
		return Inputs{}, err
	}
	return cliInputs("dmls-sweep", "sweep-comm-grid.json", doc, "sweep-setup.json", *s.Sweep.Base.Workload.Graph, "-format", "json")
}

// serveMix: a closed-loop reference rung, then the open-loop rate ladder,
// every rung with its own requests. Each block of a rung mixes the classes
// in exact shuffled shares; never-seen plans and graphs push the working
// set past the server's graph and estimate caches, while pooled graphs and
// the verbatim example suites are served warm and can coalesce.
func (g *gen) serveMix() (Inputs, error) {
	in := Inputs{
		Examples: map[string][]string{
			classPlanExample:  {"dmls-plan", "-suite", "plan-tta.json", "-format", "json"},
			classSweepExample: {"dmls-sweep", "-suite", "fig2-bandwidth-sweep.json", "-format", "json"},
		},
		ReplayRequests: g.size.RungRequests,
	}
	exampleDocs := map[string][]byte{}
	for class, name := range map[string]string{classPlanExample: "plan-tta.json", classSweepExample: "fig2-bandwidth-sweep.json"} {
		raw, err := examples.ReadFile("examples/" + name)
		if err != nil {
			return Inputs{}, fmt.Errorf("workload: %w", err)
		}
		g.files[name] = raw
		exampleDocs[class] = raw
	}

	pool := make([]scenario, 4)
	for i := range pool {
		pool[i] = graphCell(fmt.Sprintf("pool %d", i), g.size.PoolVertices, g.graphSeed(), g.graphSeed(), protocol{Kind: "ring", Bandwidth: 1e9})
		doc, err := json.Marshal(suite{Name: pool[i].Name, Scenarios: []scenario{pool[i]}})
		if err != nil {
			return Inputs{}, fmt.Errorf("workload: encode prewarm: %w", err)
		}
		req, err := request("prewarm", "/v1/sweep", doc, false, 0)
		if err != nil {
			return Inputs{}, err
		}
		in.Prewarm = append(in.Prewarm, req)
	}
	in.ProbeGraph = *pool[0].Workload.Graph

	cold := 0
	for _, rate := range append([]int{ClosedLoop}, Rates...) {
		blocks := 1
		if rate == ClosedLoop {
			blocks = g.size.ClosedBlocks
		}
		var classes []string
		for range blocks {
			classes = append(classes, g.shuffledClasses(g.size.RungRequests)...)
		}
		rung := Rung{Rate: rate}
		var due time.Duration
		for i, class := range classes {
			var (
				req Request
				err error
			)
			switch class {
			case classPlanGridSmall:
				var doc []byte
				if doc, err = json.Marshal(g.planSweep(fmt.Sprintf("plan-grid-small r%d #%d", rate, i), g.size.SmallBandwidths, 2)); err == nil {
					req, err = request(class, "/v1/plan", doc, true, 0)
				}
			case classPlanExample:
				req, err = request(class, "/v1/plan", exampleDocs[class], false, 0)
			case classSweepExample:
				req, err = request(class, "/v1/sweep", exampleDocs[class], false, 0)
			case classSweepPool:
				base := pool[g.r.intn(len(pool))]
				var doc []byte
				if doc, err = json.Marshal(suite{Name: "sweep-pool " + base.Name, Sweep: &sweep{
					Base:       base,
					Protocols:  pick(&g.r, gridProtocols, 2),
					Bandwidths: pick(&g.r, geometric(1e8, 2, 8), 2),
					Precisions: pick(&g.r, commPrecisions, 2),
				}}); err == nil {
					req, err = request(class, "/v1/sweep", doc, false, 0)
				}
			case classSweepCold:
				cold++
				var doc []byte
				sc := graphCell(fmt.Sprintf("cold %d", cold), g.size.PoolVertices, g.graphSeed(), g.graphSeed(), protocol{Kind: "shared-memory"})
				if doc, err = json.Marshal(suite{Name: sc.Name, Scenarios: []scenario{sc}}); err == nil {
					req, err = request(class, "/v1/sweep", doc, false, 0)
				}
			}
			if err != nil {
				return Inputs{}, err
			}
			if rate != ClosedLoop {
				// Poisson arrivals: exponential gaps at the rung's rate.
				due += time.Duration(-math.Log(1-g.r.float()) / float64(rate) * float64(time.Second))
				req.Due = due
			}
			rung.Requests = append(rung.Requests, req)
		}
		in.Rungs = append(in.Rungs, rung)
	}
	return in, nil
}

// shuffledClasses returns n class labels in exact shares (largest remainder
// for the leftovers), shuffled.
func (g *gen) shuffledClasses(n int) []string {
	out := make([]string, 0, n)
	type rem struct {
		class string
		frac  int
	}
	var rems []rem
	for _, cs := range classShares {
		k := n * cs.percent / 100
		for i := 0; i < k; i++ {
			out = append(out, cs.class)
		}
		rems = append(rems, rem{cs.class, n * cs.percent % 100})
	}
	for len(out) < n {
		best := 0
		for i := range rems {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		out = append(out, rems[best].class)
		rems[best].frac = -1
	}
	for i := len(out) - 1; i > 0; i-- {
		j := g.r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// pick returns k distinct elements of values in their original order.
func pick[T any](r *rng, values []T, k int) []T {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := make([]bool, len(values))
	for _, i := range idx[:k] {
		chosen[i] = true
	}
	var out []T
	for i, v := range values {
		if chosen[i] {
			out = append(out, v)
		}
	}
	return out
}

// geometric returns n values start, start·ratio, start·ratio², ….
func geometric(start, ratio float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= ratio
	}
	return out
}

// rng is SplitMix64: small, and stable across Go releases, so a seed names
// the same inputs on every toolchain.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
