package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// TestBreakerStateMachine drives one breaker through its whole lifecycle
// with an injected clock: closed under mixed traffic, tripped by a failure
// burst, open denies, half-open admits exactly one probe, probe failure
// re-opens, probe success closes, and Cancel releases the probe slot
// without judging the service.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 3, FailureRatio: 0.5, OpenFor: time.Second}, clock)

	if st := b.State(); st != BreakerClosed {
		t.Fatalf("initial state = %d, want closed", st)
	}
	// One failure among successes stays closed (ratio 1/3 < 0.5).
	b.Record(true)
	b.Record(false)
	b.Record(true)
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatalf("breaker tripped below its failure ratio")
	}
	// One more failure trips it: window [ok fail ok fail] = 2/4 ≥ 0.5.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after burst = %d, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	// Open period lapses: exactly one probe is admitted.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A cancelled probe releases the slot without closing or re-opening.
	b.Cancel()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cancelled probe = %d, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("probe slot not released by Cancel")
	}
	// Probe failure re-opens for another full period.
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe denied")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", b.State())
	}
	// The window restarted clean: the pre-trip failures are forgotten.
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("stale window survived recovery")
	}
}

// TestBreakerDegradedServing forces the kernel circuit breakers open and
// proves the degraded contract end to end: /v1/plan answers 200 with a
// well-formed "degraded": true bound-model document, /v1/sweep sheds 503
// with a positive-integer Retry-After, /healthz reports "degraded" at 200
// (alive, do not restart) — and once the open period lapses, one clean
// probe heals everything back to byte-identical full-fidelity serving.
func TestBreakerDegradedServing(t *testing.T) {
	s, ts := newTestServer(t, Config{Breaker: BreakerConfig{OpenFor: 30 * time.Millisecond}})

	// Baseline: full-fidelity plan while healthy.
	status, healthy, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`}`)
	if status != 200 {
		t.Fatalf("healthy plan: status %d", status)
	}

	s.BreakerFor("sweep").ForceOpen()
	s.BreakerFor("plan").ForceOpen()

	// Healthz: degraded, but 200 — the process must not be restarted.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "degraded\n" {
		t.Fatalf("healthz while open = %d %q, want 200 \"degraded\"", resp.StatusCode, body)
	}

	// Plans degrade to bound estimates instead of failing.
	status, degraded, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`}`)
	if status != 200 {
		t.Fatalf("degraded plan: status %d: %s", status, degraded)
	}
	var report scenario.PlanReport
	if err := json.Unmarshal(degraded, &report); err != nil {
		t.Fatalf("degraded plan: bad body: %v", err)
	}
	if !report.Degraded {
		t.Fatalf("degraded plan not marked: %s", degraded)
	}
	if len(report.Plans) == 0 {
		t.Fatal("degraded plan carries no plans")
	}
	for _, p := range report.Plans {
		if p.Error != "" {
			t.Fatalf("degraded plan for %q errored: %s", p.Scenario, p.Error)
		}
		if !p.Pruned || p.BoundTimeSeconds <= 0 {
			t.Fatalf("degraded plan for %q is not a bound estimate: %+v", p.Scenario, p)
		}
		if p.Notice == "" {
			t.Fatalf("degraded plan for %q carries no explanatory notice", p.Scenario)
		}
	}

	// Sweeps have no kernel-free fallback: shed with a retry hint.
	status, _, hdr := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded sweep: status %d, want 503", status)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("degraded sweep Retry-After = %q, want positive integer", hdr.Get("Retry-After"))
	}

	if s.degradedPlans.Value() == 0 || s.degradedShed.Value() == 0 {
		t.Fatalf("degraded counters = plans %d shed %d, want both positive", s.degradedPlans.Value(), s.degradedShed.Value())
	}

	// Recovery: the open period lapses, the next requests probe, succeed,
	// and close both breakers.
	time.Sleep(50 * time.Millisecond)
	status, recovered, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`}`)
	if status != 200 {
		t.Fatalf("recovery plan: status %d", status)
	}
	if !bytes.Equal(recovered, healthy) {
		t.Fatalf("recovered plan differs from pre-trip plan:\nafter: %s\nbefore: %s", recovered, healthy)
	}
	if status, _, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`); status != 200 {
		t.Fatalf("recovery sweep: status %d", status)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz after recovery = %d %q, want 200 \"ok\"", resp.StatusCode, body)
	}
	if sw, pl := s.breakerSweep.State(), s.breakerPlan.State(); sw != BreakerClosed || pl != BreakerClosed {
		t.Fatalf("breaker states after recovery = %d/%d, want closed/closed", sw, pl)
	}
}

// TestChaosTransientRetry injects fail-twice-then-succeed transient kernel
// faults under a concurrent request storm: the retry layer must absorb
// every fault (all responses 200 with zero scenario errors), the breakers
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
	if sw, pl := s.breakerSweep.State(), s.breakerPlan.State(); sw != BreakerClosed || pl != BreakerClosed {
		t.Fatalf("breaker states = %d/%d; absorbed faults must not trip them", sw, pl)
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
// client's input, not kernel trouble. Five such requests per route must
// leave both breakers closed, so the next valid sweep answers 200 and the
// next valid plan is full fidelity rather than degraded.
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
		if st := s.BreakerFor(route).State(); st != BreakerClosed {
			t.Fatalf("%s breaker state %d after client input errors, want closed", route, st)
		}
	}
	if status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+sweepSuiteJSON+`}`); status != 200 {
		t.Fatalf("valid sweep after bad input: status %d: %s", status, body)
	}
	status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+planSuiteJSON+`}`)
	if status != 200 || bytes.Contains(body, []byte(`"degraded"`)) {
		t.Fatalf("valid plan after bad input: status %d, want full fidelity: %s", status, body)
	}
}
