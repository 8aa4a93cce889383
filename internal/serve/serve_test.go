package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"dmlscale/internal/obs"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// planSuiteJSON is a small closed-form planning grid: fast to evaluate, no
// Monte-Carlo kernel, four cells.
const planSuiteJSON = `{
  "name": "serve plan grid",
  "objective": "pareto",
  "sweep": {
    "base": {
      "name": "conv",
      "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6, "precision_bits": 32},
      "hardware": {"preset": "nvidia-k40"},
      "protocol": {"kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9},
      "convergence": {"rule": "diminishing", "base_iterations": 50000, "critical_batch_growth": 32},
      "max_workers": 32
    },
    "bandwidths_bits_per_sec": [1e9, 10e9],
    "protocols": ["two-stage-tree", "ring"]
  }
}`

// sweepSuiteJSON is the same grid without the convergence block, for
// /v1/sweep.
const sweepSuiteJSON = `{
  "name": "serve sweep grid",
  "sweep": {
    "base": {
      "name": "conv",
      "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6, "precision_bits": 32},
      "hardware": {"preset": "nvidia-k40"},
      "protocol": {"kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9},
      "max_workers": 32
    },
    "bandwidths_bits_per_sec": [1e9, 10e9],
    "protocols": ["two-stage-tree", "ring"]
  }
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestHandlerAllocs pins the allocations of one request through the
// in-process handler, on the kernel-free fixtures: 219 for the plan and
// 260 for the sweep. A change that allocates more per request fails here
// and must say why it pays.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so counts drift")
	}
	// Span ids below 256 box into the traceparent header without
	// allocating (the runtime's static small integers), so move the
	// process-wide counter past them: the pin then holds whatever ran
	// before it. Collections stay off while counting, so pool refills
	// after a GC do not blur the count.
	for obs.NewSpanID() < 256 {
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		path, suite string
		pin         float64
	}{{"/v1/plan", planSuiteJSON, 219}, {"/v1/sweep", sweepSuiteJSON, 260}} {
		body := `{"suite": ` + tc.suite + `}`
		allocs := testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(body)))
			if rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body)
			}
		})
		if allocs > tc.pin {
			t.Errorf("%s: one request allocated %.0f objects, pinned at %.0f", tc.path, allocs, tc.pin)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	// /metrics has one format: even a client asking for JSON gets the
	// Prometheus exposition.
	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Fatalf("metrics Content-Type = %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "# TYPE dmls_parallelism gauge") {
		t.Fatalf("metrics missing the parallelism gauge:\n%s", raw)
	}
}

// TestMetricsPrometheusDefault: a bare GET /metrics serves Prometheus text
// exposition with the expected families,
// and a request that ran populates the per-route duration histogram.
func TestMetricsPrometheusDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`); status != 200 {
		t.Fatalf("sweep: %d %s", status, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("Prometheus metrics Content-Type = %q", got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("Prometheus metrics Cache-Control = %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE dmls_requests_total counter",
		"# TYPE dmls_request_duration_seconds histogram",
		"# TYPE dmls_request_cells histogram",
		"# TYPE dmls_in_flight gauge",
		"dmls_requests_total 1",
		`dmls_request_duration_seconds_count{route="sweep"} 1`,
		`dmls_request_cells_count{route="sweep"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	// The sweep covered 4 cells: the cells histogram's bucket at le=4 must
	// already hold the observation.
	if !strings.Contains(text, `dmls_request_cells_bucket{route="sweep",le="4"} 1`) {
		t.Errorf("cells histogram did not record the 4-cell sweep:\n%s", text)
	}
}

// TestTraceparentHonoredAndGenerated: a request carrying a W3C traceparent
// keeps its trace id on the response; one without gets a fresh, valid one.
func TestTraceparentHonoredAndGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(`{"suite": `+sweepSuiteJSON+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", inbound)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	echoed := resp.Header.Get("Traceparent")
	if !strings.Contains(echoed, "0123456789abcdef0123456789abcdef") {
		t.Fatalf("inbound trace id not honored: %q", echoed)
	}

	status, _, hdr := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`)
	if status != 200 {
		t.Fatalf("sweep: %d", status)
	}
	generated := hdr.Get("Traceparent")
	if _, _, ok := obs.ParseTraceparent(generated); !ok {
		t.Fatalf("generated traceparent invalid: %q", generated)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing access logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogPhaseBreakdown: with an AccessLog writer configured, each
// evaluation request emits one JSON line carrying trace id, status and the
// phase breakdown.
func TestAccessLogPhaseBreakdown(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &buf})
	if status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`); status != 200 {
		t.Fatalf("sweep: %d %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("access log lines = %d, want 1: %q", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v: %s", err, lines[0])
	}
	if entry["route"] != "sweep" || entry["status"] != float64(200) {
		t.Fatalf("access log route/status: %v", entry)
	}
	if id, _ := entry["trace_id"].(string); len(id) != 32 {
		t.Fatalf("access log trace_id %q", entry["trace_id"])
	}
	if entry["cells"] != float64(4) {
		t.Fatalf("access log cells = %v, want 4", entry["cells"])
	}
	if entry["duration_ms"] == nil {
		t.Fatalf("access log missing duration_ms: %v", entry)
	}
}

// exampleSuites returns the examples/suites documents.
func exampleSuites(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("../../examples/suites/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example suites: %v", err)
	}
	docs := make([]string, len(paths))
	for i, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = string(raw)
	}
	return docs
}

// TestPlanMatchesOfflineByteForByte is the service's core contract: a
// /v1/plan response equals dmls-plan -format json over the same suite,
// for the fixture with planner knobs and every example suite without.
func TestPlanMatchesOfflineByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	type request struct {
		suite, knobs string
		opts         planner.Options
	}
	requests := []request{{planSuiteJSON, `, "adaptive": true, "refine": 1`, planner.Options{Prune: true, RefineRounds: 1}}}
	for _, doc := range exampleSuites(t) {
		requests = append(requests, request{suite: doc})
	}
	for _, rq := range requests {
		status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+rq.suite+rq.knobs+`}`)
		if status != 200 {
			t.Fatalf("plan: %d %s", status, body)
		}
		suite, err := scenario.DecodeSuite(strings.NewReader(rq.suite))
		if err != nil {
			t.Fatal(err)
		}
		report, _, err := planner.PlanSuiteCtx(context.Background(), suite, "", 0, rq.opts)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := scenario.WritePlansJSON(&want, report.Export()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: served plan differs from offline plan:\nserved: %s\noffline: %s", suite.Name, body, want.Bytes())
		}
	}
}

func TestSweepMatchesOfflineByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, doc := range append(exampleSuites(t), sweepSuiteJSON) {
		status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+doc+`}`)
		if status != 200 {
			t.Fatalf("sweep: %d %s", status, body)
		}
		suite, err := scenario.DecodeSuite(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := scenario.EvaluateSuiteStatsCtx(context.Background(), suite, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := scenario.WriteResultsJSON(&want, suite.Name, results); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: served sweep differs from offline sweep:\nserved: %s\noffline: %s", suite.Name, body, want.Bytes())
		}
	}
}

// TestPlanRejects: every malformed body, and every knob the planner
// rejects, answers a structured 400 that names its reason and counts in
// bad_requests_total.
func TestPlanRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCells: 4})
	sixCells := strings.Replace(planSuiteJSON, "[1e9, 10e9]", "[1e9, 10e9, 100e9]", 1)
	cases := []struct {
		name, body, want string
	}{
		{"malformed json", `{`, "bad plan request"},
		{"not an object", `[1,2,3]`, "bad plan request"},
		{"trailing garbage", `{"suite": ` + planSuiteJSON + `} extra`, "trailing data"},
		{"unknown field", `{"suite": ` + planSuiteJSON + `, "objektive": "tta"}`, `unknown field \"objektive\"`},
		{"missing suite", `{"objective": "tta"}`, `missing \"suite\"`},
		{"bad objective", `{"suite": ` + planSuiteJSON + `, "objective": "fastest"}`, `unknown objective \"fastest\"`},
		{"max_time_seconds is no field", `{"suite": ` + planSuiteJSON + `, "max_time_seconds": 7200}`, `unknown field \"max_time_seconds\"`},
		{"bad max_time", `{"suite": ` + planSuiteJSON + `, "max_time": "two hours"}`, "bad max_time"},
		{"negative max_time", `{"suite": ` + planSuiteJSON + `, "max_time": "-1h"}`, "max time -3600s is negative"},
		{"negative refine", `{"suite": ` + planSuiteJSON + `, "refine": -1}`, "negative refinement rounds -1"},
		{"negative max_cost", `{"suite": ` + planSuiteJSON + `, "max_cost": -5}`, "max cost -5 is negative"},
		{"bad deadline", `{"suite": ` + planSuiteJSON + `, "deadline": "soon"}`, "bad deadline"},
		{"oversized grid", `{"suite": ` + sixCells + `}`, "6 cells, over the server's limit of 4"},
		{"suite not json", `{"suite": "nope"}`, "bad plan request"},
	}
	for _, tc := range cases {
		status, body, _ := post(t, ts, "/v1/plan", tc.body)
		if status != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d, body %s; want 400 naming %q", tc.name, status, body, tc.want)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not structured: %s", tc.name, body)
		}
	}
	if got := s.badRequests.Value(); got != int64(len(cases)) {
		t.Errorf("bad_requests_total = %d, want %d", got, len(cases))
	}
	if got := s.panics.Value(); got != 0 {
		t.Errorf("panics_total = %d after bad requests", got)
	}
}

// TestOversizedGridRejectedBeforeEngine proves the cap is catalog
// arithmetic: a grid of millions of cells is refused without building a
// model (instant even though evaluating it would take minutes).
func TestOversizedGridRejectedBeforeEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 64})
	huge := `{
	  "name": "huge",
	  "sweep": {
	    "base": {
	      "name": "conv",
	      "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6},
	      "hardware": {"preset": "nvidia-k40"},
	      "protocol": {"kind": "ring", "bandwidth_bits_per_sec": 1e9},
	      "max_workers": 64
	    },
	    "bandwidths_bits_per_sec": [1e9, 2e9, 4e9, 8e9, 16e9, 32e9, 64e9, 128e9],
	    "protocols": ["ring", "two-stage-tree", "linear", "pipelined-tree"],
	    "precisions_bits": [8, 16, 32, 64],
	    "max_workers": [16, 32, 64, 128]
	  }
	}`
	start := time.Now()
	status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+huge+`}`)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized grid: %d %s", status, body)
	}
	if !strings.Contains(string(body), "over the server's limit") {
		t.Fatalf("unexpected rejection: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("rejection took %v; the cap must fire before model work", elapsed)
	}
}

func TestExpiredDeadlineReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`, "deadline": "1ns"}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s", status, body)
	}
	if got := s.deadlineExpired.Value(); got != 1 {
		t.Errorf("deadline_expired_total = %d, want 1", got)
	}
}

// TestPanicContainment: a panic inside a handler becomes a structured 500
// and the server keeps answering.
func TestPanicContainment(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.contained("plan", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "kaboom") {
		t.Fatalf("panic not structured: %s", rec.Body.String())
	}
	if panics, inFlight := s.panics.Value(), s.inFlight.Load(); panics != 1 || inFlight != 0 {
		t.Fatalf("metrics after panic: panics=%d in_flight=%d", panics, inFlight)
	}
	// The semaphore slot came back: the next request is admitted.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/plan", strings.NewReader("{}")))
	if rec2.Code == http.StatusTooManyRequests {
		t.Fatal("semaphore slot leaked by panicking request")
	}

	// Handlers write their document straight into the response, so one
	// that panics halfway through it must not reach the client, whether
	// its body coalesces (the leader) or not.
	half := s.contained("plan", s.coalesce("plan", func(w http.ResponseWriter, r *http.Request, _ []byte) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"plans": [`)
		panic("kaboom")
	}))
	for _, body := range []string{`{}`, `not json`} {
		rec := httptest.NewRecorder()
		half.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body)))
		var e apiError
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil {
			t.Errorf("body %q: a half-written response reached the client: %d %q", body, rec.Code, rec.Body)
		}
	}
}

// TestRunDrain exercises the lifecycle: serve, answer healthz, then drain on
// context cancellation while an in-flight request finishes.
func TestRunDrain(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	var base string
	for range 200 {
		if a := s.Addr(); a != "" {
			base = "http://" + a
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("server never bound")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}

	// An in-flight request started before the drain must complete.
	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/plan", "application/json",
			strings.NewReader(`{"suite": `+planSuiteJSON+`}`))
		if err == nil {
			defer resp.Body.Close()
			if _, err2 := io.ReadAll(resp.Body); err2 != nil {
				err = err2
			} else if resp.StatusCode != 200 {
				err = fmt.Errorf("in-flight request got %d", resp.StatusCode)
			}
		}
		inFlight <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// TestServedSweepBoundsGraphAxis: a sweep of a graph cell over 1,000,000
// workers answers with the cell's error, which names the bound, and prices
// nothing: no graph generated, no kernel batch allocated.
func TestServedSweepBoundsGraphAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	suite := `{"name": "huge axis", "scenarios": [{
	  "name": "bp dns",
	  "workload": {"family": "mrf", "graph": {"family": "dns", "vertices": 1000, "seed": 5}, "states": 2},
	  "hardware": {"preset": "dl980-core"},
	  "protocol": {"kind": "shared-memory"},
	  "max_workers": 1000000
	}]}`
	before := registry.SnapshotCaches()
	status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+suite+`}`)
	if status != 200 {
		t.Fatalf("sweep: %d %s", status, body)
	}
	var doc struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Results) != 1 {
		t.Fatalf("sweep response %s: %v", body, err)
	}
	if !strings.Contains(doc.Results[0].Error, "bound of 1024 workers") {
		t.Errorf("cell error %q does not name the bound", doc.Results[0].Error)
	}
	after := registry.SnapshotCaches()
	if after.Degrees.Misses != before.Degrees.Misses || after.KernelBatches != before.KernelBatches ||
		after.KernelSingles != before.KernelSingles || after.Estimates.Misses != before.Estimates.Misses {
		t.Errorf("a refused axis priced work: caches went from %+v to %+v", before, after)
	}
}

// TestServedSuiteBoundsCurvePoints: a gradient-descent axis has no bound of
// its own, so one cell at 2^31−1 workers would ask for a curve of about
// 200 GB. The server refuses it, on both verbs, with a 400 naming the
// point limit — MaxCells × 1,024 — before any curve is allocated.
func TestServedSuiteBoundsCurvePoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	suite := `{"name": "huge gd axis", "scenarios": [{
	  "name": "conv",
	  "workload": {"family": "gd-weak", "flops_per_example": 15e9, "batch_size": 128, "parameters": 25e6, "precision_bits": 32},
	  "hardware": {"preset": "nvidia-k40"},
	  "protocol": {"kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9},
	  "convergence": {"rule": "sqrt", "base_iterations": 10000},
	  "max_workers": 2147483647
	}]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, path := range []string{"/v1/plan", "/v1/sweep"} {
		status, body, _ := post(t, ts, path, `{"suite": `+suite+`}`)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "2147483647 curve points") ||
			!strings.Contains(string(body), "limit of 4194304") {
			t.Errorf("%s: status %d, body %s; want 400 naming the point limit", path, status, body)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("refusing the suite allocated %d bytes", grew)
	}
}
