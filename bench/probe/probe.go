// Package probe measures the program's layers in-process: passes over a
// workload's requests, traced or not, a replay through the service's HTTP
// handler, and timings of each layer's primitive on the workload's inputs.
//
// It is the only part of the benchmark that imports the program's internal
// packages, and it uses their exported functions only. The end-to-end half
// drives the command lines and the HTTP API alone, so a refactor of an
// internal package can break these probes but never the gated metrics.
package probe

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/workload"
	"dmlscale/internal/core"
	"dmlscale/internal/memo"
	"dmlscale/internal/obs"
	"dmlscale/internal/partition"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/scenario"
	"dmlscale/internal/serve"
	"dmlscale/internal/units"
)

// Metrics maps per-layer metric names to values.
type Metrics map[string]results.Metric

func (m Metrics) set(name string, v float64, unit string) {
	m[name] = results.Metric{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// PassResult is what one in-process pass measured.
type PassResult struct {
	Wall time.Duration
	// Digests are the sha256 of each request's JSON answer, in order.
	Digests []string
	Metrics Metrics
}

// Pass answers the workload's replayed requests in-process, one after
// another, each the way the CLIs do: decode the suite, plan or sweep it,
// encode the JSON answer. Serve-mix's prewarm requests run first, untimed
// and untraced. A traced pass records spans around each of those steps —
// the program's own spans nest inside them — and folds them into each
// layer's share of the pass's wall time.
func Pass(ctx context.Context, in workload.Inputs, traced bool) (PassResult, error) {
	var t tally
	for _, req := range in.Prewarm {
		if _, err := answer(ctx, req, &t); err != nil {
			return PassResult{}, fmt.Errorf("prewarm: %w", err)
		}
	}
	t = tally{}
	var buf *obs.TraceBuffer
	if traced {
		buf = obs.NewTraceBuffer(0)
		obs.SetRecorder(buf)
		defer obs.SetRecorder(nil)
	}
	caches := registry.SnapshotCaches()
	kernel := registry.KernelComputeTime()
	retries := resilience.TotalRetries()

	start := time.Now()
	pctx, root := obs.Start(ctx, "pass")
	var digests []string
	for _, req := range in.Replay() {
		d, err := answer(pctx, req, &t)
		if err != nil {
			root.End()
			return PassResult{}, err
		}
		digests = append(digests, d)
	}
	root.End()
	wall := time.Since(start)
	obs.SetRecorder(nil)

	m := Metrics{}
	after := registry.SnapshotCaches()
	est := statsDelta(after.Estimates, caches.Estimates)
	deg := statsDelta(after.Degrees, caches.Degrees)
	m.set("memo.kernel_hit_ratio", est.HitRatio(), "ratio")
	m.set("memo.kernel_evictions", float64(est.Evictions), "count")
	m.set("memo.degree_hit_ratio", deg.HitRatio(), "ratio")
	m.set("registry.kernel_batches", float64(after.KernelBatches-caches.KernelBatches), "count")
	m.set("registry.kernel_singles", float64(after.KernelSingles-caches.KernelSingles), "count")
	m.set("registry.kernel_compute_pct", 100*ratio(float64(registry.KernelComputeTime()-kernel), float64(wall)), "%")
	m.set("resilience.retried", float64(resilience.TotalRetries()-retries), "count")
	m.set("core.deduped", float64(t.deduped), "count")
	m.set("planner.evaluated_ratio", ratio(float64(t.planEvaluated), float64(t.planCells)), "ratio")
	m.set("planner.pruned", float64(t.pruned), "count")
	m.set("planner.refined", float64(t.refined), "count")
	m.set("scenario.decode_ms", ms(t.decode), "ms")
	m.set("scenario.encode_ms", ms(t.encode), "ms")
	m.set("scenario.encode_mb_per_s", ratio(float64(t.outputBytes)/1e6, t.encode.Seconds()), "MB/s")
	m.set("scenario.output_bytes", float64(t.outputBytes), "bytes")
	m.set("trace.wall_ms", ms(wall), "ms")
	if traced {
		foldShares(m, buf.Spans(), wall)
		m.set("trace.dropped", float64(buf.Dropped()), "count")
	}
	return PassResult{Wall: wall, Digests: digests, Metrics: m}, nil
}

// statsDelta is after minus before, counter by counter.
func statsDelta(after, before memo.Stats) memo.Stats {
	return memo.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
	}
}

// layerOf maps a span name to the layer its self time is charged to.
// "cell" and "suite" spans come from both the planner and the sweep
// evaluator; the request's verb picks which. The pass's own wrappers and
// spans this table does not know are the residual.
func layerOf(name, verb string) string {
	switch name {
	case "decode":
		return "scenario.decode"
	case "encode":
		return "scenario.encode"
	case "suite":
		if verb == "plan" {
			return "planner.suite"
		}
		return "scenario.suite"
	case "cell":
		if verb == "plan" {
			return "planner.cell"
		}
		return "core.cell"
	case "build":
		return "registry.build"
	case "kernel":
		return "registry.kernel"
	case "sample":
		return "core.sample"
	case "dedup":
		return "core.dedup"
	case "mc-shard":
		return "partition.shard"
	case "bound-pass":
		return "planner.bound"
	case "prune":
		return "planner.prune"
	case "refine-round":
		return "planner.refine"
	}
	return ""
}

// layers lists every layerOf result, so each pass reports every share.
var layers = []string{
	"scenario.decode", "scenario.encode", "scenario.suite", "planner.suite", "planner.cell",
	"core.cell", "registry.build", "registry.kernel", "core.sample", "core.dedup",
	"partition.shard", "planner.bound", "planner.prune", "planner.refine",
}

// foldShares charges every span's self time to its layer and reports each
// layer's share of the pass's wall time, plus the residual no layer covers.
func foldShares(m Metrics, recorded []*obs.Span, wall time.Duration) {
	spans := make([]Span, len(recorded))
	for i, s := range recorded {
		spans[i] = Span{Name: s.Name(), Start: s.StartTime(), End: s.EndTime()}
		for _, a := range s.Attrs() {
			if a.Key == "verb" {
				spans[i].Verb = a.Value
			}
		}
	}
	self, parent := Fold(spans)
	byLayer := map[string]time.Duration{}
	var residual time.Duration
	for i, s := range spans {
		verb := ""
		for j := i; j >= 0 && verb == ""; j = parent[j] {
			verb = spans[j].Verb
		}
		if l := layerOf(s.Name, verb); l != "" {
			byLayer[l] += self[i]
		} else {
			residual += self[i]
		}
	}
	for _, l := range layers {
		m.set(l+"_self_pct", 100*ratio(float64(byLayer[l]), float64(wall)), "%")
	}
	m.set("trace.residual_pct", 100*ratio(float64(residual), float64(wall)), "%")
}

// tally accumulates what a pass's requests did.
type tally struct {
	decode, encode           time.Duration
	outputBytes              int64
	planCells, planEvaluated int
	pruned, refined, deduped int
}

// requestBody is the part of a request body the pass reads.
type requestBody struct {
	Suite    json.RawMessage `json:"suite"`
	Adaptive bool            `json:"adaptive"`
	Refine   int             `json:"refine"`
}

// answer decodes, evaluates and encodes one request the way the matching
// CLI does, and returns the sha256 of the answer.
func answer(ctx context.Context, req workload.Request, t *tally) (string, error) {
	var b requestBody
	if err := json.Unmarshal(req.Body, &b); err != nil {
		return "", fmt.Errorf("probe: %s request: %w", req.Class, err)
	}
	verb := "sweep"
	if req.Path == "/v1/plan" {
		verb = "plan"
	}
	ctx, span := obs.Start(ctx, "request")
	span.SetString("verb", verb)
	defer span.End()

	start := time.Now()
	_, dspan := obs.Start(ctx, "decode")
	suite, err := scenario.DecodeSuite(bytes.NewReader(b.Suite))
	dspan.End()
	t.decode += time.Since(start)
	if err != nil {
		return "", fmt.Errorf("probe: %s request: %w", req.Class, err)
	}

	ectx, espan := obs.Start(ctx, "evaluate")
	encode, st, err := evaluate(ectx, verb, suite, b)
	espan.End()
	if err != nil {
		return "", fmt.Errorf("probe: %s request: %w", req.Class, err)
	}
	if st.Failed > 0 || st.Cancelled > 0 {
		return "", fmt.Errorf("probe: %s request: %d of %d cells failed", req.Class, st.Failed+st.Cancelled, st.Scenarios)
	}
	if verb == "plan" {
		t.planCells += st.Scenarios
		t.planEvaluated += st.Evaluated
	}
	t.pruned += st.Pruned
	t.refined += st.Refined
	t.deduped += st.CurvesDeduped

	start = time.Now()
	_, cspan := obs.Start(ctx, "encode")
	h := sha256.New()
	cw := &countingWriter{w: h}
	err = encode(cw)
	cspan.End()
	t.encode += time.Since(start)
	t.outputBytes += cw.n
	if err != nil {
		return "", fmt.Errorf("probe: %s request: encode: %w", req.Class, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// evaluate plans or sweeps a suite with the request's knobs and returns
// the encoder of its JSON answer.
func evaluate(ctx context.Context, verb string, suite scenario.Suite, b requestBody) (func(io.Writer) error, scenario.EvalStats, error) {
	if verb == "plan" {
		report, st, err := planner.PlanSuiteCtx(ctx, suite, "", 0, planner.Options{Prune: b.Adaptive, RefineRounds: b.Refine})
		return func(w io.Writer) error { return scenario.WritePlansJSON(w, report.Export()) }, st, err
	}
	res, st, err := scenario.EvaluateSuiteStatsCtx(ctx, suite, 0)
	return func(w io.Writer) error { return scenario.WriteResultsJSON(w, suite.Name, res) }, st, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Handler replays the workload's requests, prewarm first, through the
// service's HTTP handler in-process and returns each replayed request's
// latency and body digest.
func Handler(ctx context.Context, in workload.Inputs) ([]time.Duration, []string, error) {
	// CLI workloads are served as one request as large as their suite, past
	// the default grid cap; the cap does not change any answer.
	srv := serve.New(serve.Config{MaxCells: scenario.MaxStreamCells})
	defer srv.Close()
	h := srv.Handler()
	do := func(req workload.Request) (time.Duration, string, error) {
		r := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, r)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, "", fmt.Errorf("probe: %s request: status %d: %.200s", req.Class, rec.Code, rec.Body.String())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		return d, hex.EncodeToString(sum[:]), nil
	}
	for _, req := range in.Prewarm {
		if _, _, err := do(req); err != nil {
			return nil, nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	var (
		lat     []time.Duration
		digests []string
	)
	for _, req := range in.Replay() {
		d, digest, err := do(req)
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, d)
		digests = append(digests, digest)
	}
	return lat, digests, nil
}

// median runs fn reps times and returns its median duration.
func median(reps int, fn func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return ds[reps/2], nil
}

// Layers times each layer's primitive on the workload's inputs: graph
// generation, fingerprinting and the batched Monte-Carlo kernel on the
// workload's probe graph, memo hits, curve sampling, and the suite
// enumerator on the replayed requests' suites.
func Layers(ctx context.Context, in workload.Inputs) (Metrics, error) {
	m := Metrics{}
	spec := registry.GraphSpec{Family: in.ProbeGraph.Family, Vertices: in.ProbeGraph.Vertices, Seed: in.ProbeGraph.Seed}

	// Fresh seeds, so every generation misses the degree cache.
	gen, err := median(3, func(i int) error {
		s := spec
		s.Seed += int64(i) + 1
		_, err := registry.GraphDegreesCtx(ctx, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("registry.graph_gen_ms", ms(gen), "ms")
	degrees, err := registry.GraphDegreesCtx(ctx, spec)
	if err != nil {
		return nil, err
	}
	v := float64(len(degrees))

	hash, _ := median(5, func(int) error { memo.HashInt32s(degrees); return nil })
	m.set("memo.hash_ns_per_vertex", float64(hash)/v, "ns")
	build, err := median(5, func(int) error {
		_, err := registry.GraphInferenceModelCtx(ctx, "probe", degrees, 1, units.Flops(1e9), 3, spec.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("registry.build_warm_ms", ms(build), "ms")

	const trials = 3
	axis := core.Range(1, 64)
	batch, err := median(3, func(int) error {
		_, err := partition.MonteCarloMaxEdgesBatch(ctx, degrees, axis, trials, spec.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("partition.batch_ms", ms(batch), "ms")
	m.set("partition.ns_per_vertex_trial", float64(batch)/(v*trials), "ns")
	// One 64-bit draw per vertex per trial, whatever the axis length.
	m.set("partition.rng_bytes", v*trials*8, "bytes")

	hit, dobatch := memoProbe()
	m.set("memo.hit_ns", hit, "ns")
	m.set("memo.dobatch_ns_per_key", dobatch, "ns")

	model, err := scenario.Fig3().Model()
	if err != nil {
		return nil, err
	}
	workers := core.Range(1, 1024)
	curve, err := median(21, func(int) error {
		_, err := model.SpeedupCurveRelative(1, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.set("core.curve_us", float64(curve)/float64(time.Microsecond), "us")

	var suites []scenario.Suite
	for _, req := range in.Replay() {
		var b requestBody
		if err := json.Unmarshal(req.Body, &b); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		s, err := scenario.DecodeSuite(bytes.NewReader(b.Suite))
		if err != nil {
			return nil, err
		}
		suites = append(suites, s)
	}
	cells := 0
	walk, err := median(5, func(int) error {
		cells = 0
		for _, s := range suites {
			cs, err := s.Cells()
			if err != nil {
				return err
			}
			for next := cs.Next(); ; cells++ {
				if _, ok := next(); !ok {
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("scenario.cells_per_s", ratio(float64(cells), walk.Seconds()), "1/s")
	return m, nil
}

// memoProbe returns the cost of a memo hit and the per-key cost of a warm
// DoBatch, on a cache shaped like the kernel-estimate cache (4096 entries,
// 16 stripes) holding a working set well inside its bound.
func memoProbe() (hitNs, batchNsPerKey float64) {
	const keys = 1024
	c := memo.New[uint64, float64](4096, 16, memo.SplitMix64)
	compute := func() (float64, error) { return 1, nil }
	for k := uint64(0); k < keys; k++ {
		c.Do(k, compute)
	}
	const lookups = 1 << 20
	hit, _ := median(3, func(int) error {
		for i := 0; i < lookups; i++ {
			c.Do(uint64(i)%keys, compute)
		}
		return nil
	})
	batch := make([]uint64, 64)
	for i := range batch {
		batch[i] = uint64(i)
	}
	fill := func(missing []uint64) ([]float64, error) { return make([]float64, len(missing)), nil }
	const batches = 1 << 14
	dob, _ := median(3, func(int) error {
		for i := 0; i < batches; i++ {
			c.DoBatch(batch, fill)
		}
		return nil
	})
	return float64(hit) / lookups, float64(dob) / (batches * float64(len(batch)))
}
