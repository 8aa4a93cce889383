package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/scenario"
)

// TestBreakerDegradedServing forces the kernel circuit breaker open and
// proves its contract end to end: /healthz reports "degraded" at 200
// (alive, do not restart); kernel-free requests, and graph requests whose
// estimates are cached, answer byte-identically to the closed breaker's on
// both routes; a cold graph cell fails fast with the typed kernel error;
// and once the open period lapses, one clean probe fill closes the breaker.
func TestBreakerDegradedServing(t *testing.T) {
	const openFor = 500 * time.Millisecond // outlasts the open-state checks
	s, ts := newTestServer(t, Config{BreakerOpenFor: openFor})
	warm := graphSuite(freshSeed())
	cold := graphSuite(freshSeed())
	requests := []struct{ path, suite string }{
		{"/v1/plan", planSuiteJSON},
		{"/v1/sweep", sweepSuiteJSON},
		{"/v1/plan", warm},
		{"/v1/sweep", warm},
	}
	closed := make([][]byte, len(requests))
	for i, rq := range requests {
		status, body, _ := post(t, ts, rq.path, `{"suite": `+rq.suite+`}`)
		if status != 200 {
			t.Fatalf("closed %s %d: status %d: %s", rq.path, i, status, body)
		}
		closed[i] = body
	}

	s.breaker.ForceOpen()
	opened := time.Now()
	if got := healthz(t, ts); got != "degraded\n" {
		t.Fatalf("healthz while open = %q, want 200 \"degraded\"", got)
	}
	for i, rq := range requests {
		status, body, _ := post(t, ts, rq.path, `{"suite": `+rq.suite+`}`)
		if status != 200 || !bytes.Equal(body, closed[i]) {
			t.Fatalf("open %s %d: status %d, not byte-identical to the closed breaker's:\nopen: %s\nclosed: %s", rq.path, i, status, body, closed[i])
		}
	}
	for _, path := range []string{"/v1/sweep", "/v1/plan"} {
		status, body, _ := post(t, ts, path, `{"suite": `+cold+`}`)
		if status != 200 || !bytes.Contains(body, []byte(resilience.ErrKernelUnavailable.Error())) {
			t.Fatalf("open %s, cold graph: status %d, want 200 with the kernel-unavailable cell: %s", path, status, body)
		}
	}

	// Recovery: the open period lapses, and the next cold fill is the
	// probe; it succeeds and closes the breaker.
	time.Sleep(time.Until(opened.Add(openFor + 10*time.Millisecond)))
	status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+cold+`}`)
	if status != 200 || bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("probe sweep: status %d: %s", status, body)
	}
	if got := healthz(t, ts); got != "ok\n" {
		t.Fatalf("healthz after recovery = %q, want 200 \"ok\"", got)
	}
	if st := s.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker state after recovery = %d, want closed", st)
	}
}

// healthz returns /healthz's body, failing unless it answered 200.
func healthz(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// TestBreakerOpenExampleSuites serves every examples/suites document on
// both routes with the breaker open. With cold caches, only the graph
// cells change: each carries resilience.ErrKernelUnavailable (errors.Is in
// Go, "kernel unavailable" on the wire), while every other cell's record is
// identical to the closed breaker's, apart from a plan row's rank, which
// moves because failed cells rank last. With warm caches every document is
// byte-identical.
func TestBreakerOpenExampleSuites(t *testing.T) {
	paths, err := filepath.Glob("../../examples/suites/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example suites: %v", err)
	}
	openServer, closedServer := New(Config{BreakerOpenFor: time.Hour}), New(Config{})
	openServer.breaker.ForceOpen()
	defer openServer.Close()
	defer closedServer.Close()
	serveAll := func(s *Server) map[string][]byte {
		docs := map[string][]byte{}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, route := range []string{"sweep", "plan"} {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v1/"+route, strings.NewReader(`{"suite": `+string(raw)+`}`))
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Fatalf("%s %s: status %d: %s", route, path, rec.Code, rec.Body)
				}
				docs[route+" "+filepath.Base(path)] = rec.Body.Bytes()
			}
		}
		return docs
	}

	registry.ResetCaches()
	defer registry.ResetCaches()
	ctx := resilience.WithBreaker(context.Background(), openServer.breaker)
	graphCells := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := scenario.DecodeSuite(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		results, _, err := scenario.EvaluateSuiteStatsCtx(ctx, suite, 0)
		if err != nil {
			t.Fatal(err)
		}
		report, _, err := planner.PlanSuiteCtx(ctx, suite, "", 0, planner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil && !errors.Is(r.Err, resilience.ErrKernelUnavailable) {
				t.Errorf("sweep %s: %q failed with %v, want nil or ErrKernelUnavailable", path, r.Scenario.Name, r.Err)
			}
		}
		for _, p := range report.Plans {
			if p.Err != nil {
				if !errors.Is(p.Err, resilience.ErrKernelUnavailable) {
					t.Errorf("plan %s: %q failed with %v, want nil or ErrKernelUnavailable", path, p.Scenario.Name, p.Err)
				}
				graphCells++
			}
		}
	}
	if graphCells != 3 {
		t.Fatalf("%d plan cells carry ErrKernelUnavailable, want the 3 graph cells", graphCells)
	}

	registry.ResetCaches()
	coldOpen := serveAll(openServer)
	closed := serveAll(closedServer)
	warmOpen := serveAll(openServer)
	unavailable := 0
	for name, want := range closed {
		if !bytes.Equal(warmOpen[name], want) {
			t.Errorf("%s: warm caches, open breaker: not byte-identical to the closed breaker's", name)
		}
		var got, ref struct {
			Results []map[string]any `json:"results"`
			Plans   []map[string]any `json:"plans"`
		}
		if err := json.Unmarshal(coldOpen[name], &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		refCells := map[any]map[string]any{}
		for _, c := range append(ref.Results, ref.Plans...) {
			refCells[c["scenario"]] = c
		}
		for _, c := range append(got.Results, got.Plans...) {
			if e, _ := c["error"].(string); strings.Contains(e, "kernel unavailable") {
				unavailable++
				continue
			}
			want := refCells[c["scenario"]]
			delete(c, "rank")
			delete(want, "rank")
			if !reflect.DeepEqual(c, want) {
				t.Errorf("%s: cold caches, open breaker: cell %q differs:\nopen: %v\nclosed: %v", name, c["scenario"], c, want)
			}
		}
		if strings.Contains(name, "fig2") && !bytes.Equal(coldOpen[name], want) {
			t.Errorf("%s: kernel-free suite not byte-identical with the breaker open", name)
		}
	}
	if unavailable != 6 {
		t.Fatalf("%d cells say kernel unavailable on the wire, want the 3 graph cells on both routes", unavailable)
	}
}

// TestChaosTransientRetry injects fail-twice-then-succeed transient kernel
// faults under a concurrent request storm: the retry layer must absorb
// every fault (all responses 200 with zero scenario errors), the breaker
// must stay closed (no request-level failure ever surfaces), the retry
// counter must show the absorbed work, and nothing may strand a budget
// slot or leak a goroutine.
func TestChaosTransientRetry(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{MaxInFlight: 16, DefaultDeadline: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())

	// Every kernel coordinate fails its first two attempts with a
	// transient fault, then succeeds — inside the default policy's three
	// attempts, so retries alone must make every request whole.
	registry.SetKernelFault(func(c registry.KernelCall) registry.KernelFault {
		if c.Attempt < 2 {
			return registry.KernelFault{Err: errors.New("chaos: transient kernel blip"), Transient: true}
		}
		return registry.KernelFault{}
	})
	defer registry.SetKernelFault(nil)

	const n = 6
	var wg sync.WaitGroup
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, n)
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = freshSeed()
	}
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := "/v1/sweep"
			if i%2 == 0 {
				path = "/v1/plan"
			}
			st, body, _ := post(t, ts, path, `{"suite": `+graphSuite(seeds[i])+`, "parallelism": 4}`)
			replies[i] = reply{st, body}
		}()
	}
	wg.Wait()

	for i, rp := range replies {
		if rp.status != 200 {
			t.Fatalf("request %d: status %d (retries must absorb transient faults): %s", i, rp.status, rp.body)
		}
		if bytes.Contains(rp.body, []byte(`"error"`)) {
			t.Fatalf("request %d: scenario error leaked through retries: %s", i, rp.body)
		}
	}

	if s.retries.Value() == 0 {
		t.Fatal("retries_total = 0; the storm must have retried")
	}
	if st := s.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker state = %d; absorbed faults must not trip it", st)
	}

	// Faults off: the same grids answer byte-identically — the retried
	// computes populated the cache with exactly the values a fault-free
	// run produces (the kernel is deterministic per coordinates).
	registry.SetKernelFault(nil)
	for i, rp := range replies {
		path := "/v1/sweep"
		if i%2 == 0 {
			path = "/v1/plan"
		}
		st, body, _ := post(t, ts, path, `{"suite": `+graphSuite(seeds[i])+`, "parallelism": 4}`)
		if st != 200 {
			t.Fatalf("post-chaos request %d: status %d", i, st)
		}
		if !bytes.Equal(body, rp.body) {
			t.Fatalf("request %d not byte-identical after faults cleared:\nduring: %s\nafter: %s", i, rp.body, body)
		}
	}

	checkBudgetIntact(t)

	ts.CloseClientConnections()
	ts.Close()
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestBreakerIgnoresClientInputErrors: a cell that fails deterministically
// (here an unknown protocol kind, which decodes but cannot evaluate) is the
// client's input, not kernel trouble, and never reaches a kernel fill. Five
// such requests per route must leave the breaker closed, so the next valid
// sweep and plan answer in full.
func TestBreakerIgnoresClientInputErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const warp = `{"name": "warp", "scenarios": [{"name": "warp", "workload": {"flops_per_example": 1e6, "batch_size": 10, "parameters": 100},
	  "hardware": {"preset": "xeon-e3-1240"}, "protocol": {"kind": "warp", "bandwidth_bits_per_sec": 1e9},
	  "convergence": {"rule": "diminishing", "base_iterations": 100, "critical_batch_growth": 4}, "max_workers": 8}]}`
	for _, route := range []string{"sweep", "plan"} {
		for i := 0; i < 5; i++ {
			status, body, _ := post(t, ts, "/v1/"+route, `{"suite": `+warp+`}`)
			if status != 200 || !bytes.Contains(body, []byte("warp")) {
				t.Fatalf("%s %d: status %d, want 200 with the cell's error: %s", route, i, status, body)
			}
		}
	}
	if st := s.breaker.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker state %d after client input errors, want closed", st)
	}
	if status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`); status != 200 {
		t.Fatalf("valid sweep after bad input: status %d: %s", status, body)
	}
	if status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`}`); status != 200 || bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("valid plan after bad input: status %d, want every cell answered: %s", status, body)
	}
}

// TestChaosRetryBoundSameForBothRoutes: with every kernel attempt failing
// transiently, -retries bounds the attempts of each kernel computation the
// same way on both routes — the default policy's 3 attempts per coordinate
// and 2 retries per request — because the kernel fill is the only retry
// layer, for sweeps and plans alike.
func TestChaosRetryBoundSameForBothRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer registry.SetKernelFault(nil)
	for _, route := range []string{"sweep", "plan"} {
		var mu sync.Mutex
		attempts := map[registry.KernelCall]int{}
		registry.SetKernelFault(func(c registry.KernelCall) registry.KernelFault {
			mu.Lock()
			n := c.Attempt + 1
			c.Attempt = 0
			attempts[c] = max(attempts[c], n)
			mu.Unlock()
			return registry.KernelFault{Err: errors.New("chaos: always transient"), Transient: true}
		})
		before := s.retries.Value()
		if status, body, _ := post(t, ts, "/v1/"+route, `{"suite": `+graphSuite(freshSeed())+`}`); status != 200 {
			t.Fatalf("%s: status %d: %s", route, status, body)
		}
		mu.Lock()
		coordinates := len(attempts)
		for c, n := range attempts {
			if n != 3 {
				t.Errorf("%s: %d attempts at workers=%d, want 3", route, n, c.Workers)
			}
		}
		mu.Unlock()
		if coordinates == 0 {
			t.Fatalf("%s: no kernel attempt reached the fault hook", route)
		}
		if got := s.retries.Value() - before; got != 2 {
			t.Errorf("%s: retries_total delta = %d, want 2", route, got)
		}
	}
}
