package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"dmlscale/internal/obs"
	"dmlscale/internal/planner"
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
// in-process handler, on the kernel-free fixtures: 226 for the plan and
// 275 for the sweep, the breaker's context value included. A change that
// allocates more per request fails here and must say why it pays.
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
	}{{"/v1/plan", planSuiteJSON, 226}, {"/v1/sweep", sweepSuiteJSON, 275}} {
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

// TestPlanMatchesOfflineByteForByte is the service's core contract: a
// /v1/plan response equals dmls-plan -format json over the same suite.
func TestPlanMatchesOfflineByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/v1/plan",
		`{"suite": `+planSuiteJSON+`, "adaptive": true, "refine": 1}`)
	if status != 200 {
		t.Fatalf("plan: %d %s", status, body)
	}

	suite, err := scenario.DecodeSuite(strings.NewReader(planSuiteJSON))
	if err != nil {
		t.Fatal(err)
	}
	report, _, err := planner.PlanSuiteCtx(context.Background(), suite, "", 0, planner.Options{Prune: true, RefineRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scenario.WritePlansJSON(&want, report.Export()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served plan differs from offline plan:\nserved: %s\noffline: %s", body, want.Bytes())
	}
}

func TestSweepMatchesOfflineByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`)
	if status != 200 {
		t.Fatalf("sweep: %d %s", status, body)
	}
	suite, err := scenario.DecodeSuite(strings.NewReader(sweepSuiteJSON))
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
		t.Fatalf("served sweep differs from offline sweep:\nserved: %s\noffline: %s", body, want.Bytes())
	}
}

func TestPlanRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCells: 3})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"not an object", `[1,2,3]`},
		{"trailing garbage", `{"suite": ` + planSuiteJSON + `} extra`},
		{"unknown field", `{"suite": ` + planSuiteJSON + `, "objektive": "tta"}`},
		{"missing suite", `{"objective": "tta"}`},
		{"bad objective", `{"suite": ` + planSuiteJSON + `, "objective": "fastest"}`},
		{"conflicting budgets", `{"suite": ` + planSuiteJSON + `, "max_time": "2h", "max_time_seconds": 7200}`},
		{"bad max_time", `{"suite": ` + planSuiteJSON + `, "max_time": "two hours"}`},
		{"negative refine", `{"suite": ` + planSuiteJSON + `, "refine": -1}`},
		{"negative max_cost", `{"suite": ` + planSuiteJSON + `, "max_cost": -5}`},
		{"bad deadline", `{"suite": ` + planSuiteJSON + `, "deadline": "soon"}`},
		{"oversized grid", `{"suite": ` + planSuiteJSON + `}`}, // 4 cells > MaxCells 3
		{"suite not json", `{"suite": "nope"}`},
	}
	for _, tc := range cases {
		status, body, _ := post(t, ts, "/v1/plan", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
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
	half := s.contained("plan", s.coalesce("plan", func(w http.ResponseWriter, r *http.Request) {
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
