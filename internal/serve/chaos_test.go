package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// seedCounter hands out process-unique graph seeds, so repeated test runs
// in one process (-count=N) cannot hit the kernel cache entries a previous
// run populated — faults inject only inside a cache miss's compute.
var seedCounter atomic.Int64

func freshSeed() int {
	return int(seedCounter.Add(1)) + int(time.Now().UnixNano()%1_000_000)*100
}

// graphSuite returns a one-scenario suite whose evaluation goes through the
// Monte-Carlo partition kernel — the fault-injection point. Distinct seeds
// give distinct kernel-cache keys, so every request computes rather than
// hitting another request's cached estimate.
func graphSuite(seed int) string {
	return fmt.Sprintf(`{
	  "name": "chaos graph %d",
	  "scenarios": [{
	    "name": "bp dns %d",
	    "workload": {"family": "mrf", "graph": {"family": "dns", "vertices": 1500, "seed": %d}, "states": 2, "trials": 2},
	    "hardware": {"preset": "dl980-core"},
	    "protocol": {"kind": "shared-memory"},
	    "max_workers": 12
	  }]
	}`, seed, seed, seed)
}

// checkBudgetIntact acquires every shared-budget token and puts it back: the
// proof no request — panicked, cancelled or expired — wedged a slot.
func checkBudgetIntact(t *testing.T) {
	t.Helper()
	b := core.SharedBudget()
	want := b.Limit() - 1
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := b.TryAcquire(want)
		b.Release(got)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget slot leak: only %d of %d tokens recoverable", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosFaultInjection drives the server with injected kernel panics,
// errors and delays, expired deadlines and vanished clients — concurrently,
// under -race — and then proves nothing wedged: the budget drains, no
// goroutine survives, no memo entry stayed poisoned, and a clean request
// afterwards is byte-identical to the offline planner.
func TestChaosFaultInjection(t *testing.T) {
	before := runtime.NumGoroutine()

	// Admission is TestShedUnderLoad's subject: here every request of the
	// storm gets a slot, so none may be shed with 429.
	const n = 20
	s := New(Config{MaxInFlight: n, DefaultDeadline: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())

	var calls int64
	var mu sync.Mutex
	nextFault := func() registry.KernelFault {
		mu.Lock()
		defer mu.Unlock()
		calls++
		switch calls % 5 {
		case 0:
			return registry.KernelFault{Panic: "chaos"}
		case 1:
			return registry.KernelFault{Err: errors.New("chaos: injected kernel error")}
		case 2:
			return registry.KernelFault{Delay: 20 * time.Millisecond}
		default:
			return registry.KernelFault{}
		}
	}
	registry.SetKernelFault(func(registry.KernelCall) registry.KernelFault { return nextFault() })
	defer registry.SetKernelFault(nil)

	// Concurrent request storm, parallelism 4 per request: a mix of plans
	// and sweeps, some under a deadline that expires mid-kernel, some whose
	// client walks away.
	var wg sync.WaitGroup
	statuses := make([]int, n)
	clientErrs := make([]error, n)
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = freshSeed()
	}
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			suite := graphSuite(seeds[i])
			var (
				path string
				body string
			)
			switch i % 4 {
			case 0:
				path, body = "/v1/plan", `{"suite": `+suite+`, "parallelism": 4}`
			case 1:
				path, body = "/v1/sweep", `{"suite": `+suite+`, "parallelism": 4}`
			case 2: // deadline expires inside the injected kernel delay
				path, body = "/v1/plan", `{"suite": `+suite+`, "parallelism": 4, "deadline": "15ms"}`
			default: // client disconnects mid-evaluation
				path, body = "/v1/plan", `{"suite": `+suite+`, "parallelism": 4}`
			}
			req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
			if err != nil {
				clientErrs[i] = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if i%4 == 3 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				defer cancel()
				req = req.WithContext(ctx)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				// Only the walked-away clients may error client-side.
				if i%4 != 3 {
					clientErrs[i] = err
				}
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			statuses[i] = resp.StatusCode
		}()
	}

	// The server must answer liveness probes throughout the storm.
	probeStop := make(chan struct{})
	probeErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-probeStop:
				probeErr <- nil
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/healthz")
			if err != nil {
				probeErr <- fmt.Errorf("healthz during chaos: %w", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				probeErr <- fmt.Errorf("healthz during chaos: %d", resp.StatusCode)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(probeStop)
	if err := <-probeErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("request %d failed client-side: %v", i, err)
		}
	}
	for i, st := range statuses {
		if st == 0 {
			continue // walked-away client
		}
		switch st {
		case 200, http.StatusGatewayTimeout, http.StatusServiceUnavailable:
		default:
			t.Fatalf("request %d: status %d; chaos must surface as 200-with-errors, 503 or 504, never a crash", i, st)
		}
	}

	// Faults off: every previously poisoned kernel computation must recover.
	// Entries for panicked or errored computes were dropped, not cached, so
	// these same suites now evaluate cleanly.
	registry.SetKernelFault(nil)
	for i := range n {
		status, body, _ := post(t, ts, "/v1/plan", `{"suite": `+graphSuite(seeds[i])+`, "parallelism": 4}`)
		if status != 200 {
			t.Fatalf("post-chaos plan %d: status %d: %s", i, status, body)
		}
		var report scenario.PlanReport
		if err := json.Unmarshal(body, &report); err != nil {
			t.Fatalf("post-chaos plan %d: bad body: %v", i, err)
		}
		for _, p := range report.Plans {
			if p.Error != "" {
				t.Fatalf("post-chaos plan %d: scenario %q still failing: %s (poisoned cache entry?)", i, p.Scenario, p.Error)
			}
		}
	}

	// Byte-identity with the offline planner, post-chaos.
	status, served, _ := post(t, ts, "/v1/plan", `{"suite": `+graphSuite(seeds[0])+`}`)
	if status != 200 {
		t.Fatalf("identity plan: %d", status)
	}
	suite, err := scenario.DecodeSuite(strings.NewReader(graphSuite(seeds[0])))
	if err != nil {
		t.Fatal(err)
	}
	report, _, err := planner.PlanSuiteCtx(context.Background(), suite, "", 0, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scenario.WritePlansJSON(&want, report.Export()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served plan differs from offline plan after chaos:\nserved: %s\noffline: %s", served, want.Bytes())
	}

	checkBudgetIntact(t)

	// Everything the storm spawned must be gone.
	ts.CloseClientConnections()
	ts.Close()
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked through chaos: %d before, %d after", before, g)
	}
}

// TestChaosKernelFillAttemptedOnce: under a hook that fails every kernel
// call, each kernel coordinate is attempted exactly once, on /v1/sweep and
// on /v1/plan alike, and the graph cell carries the hook's error. Nothing
// above or inside the kernel fill retries it.
func TestChaosKernelFillAttemptedOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer registry.SetKernelFault(nil)
	const fault = "chaos: the kernel always fails"
	for _, route := range []string{"sweep", "plan"} {
		var mu sync.Mutex
		attempts := map[registry.KernelCall]int{}
		registry.SetKernelFault(func(c registry.KernelCall) registry.KernelFault {
			mu.Lock()
			attempts[c]++
			mu.Unlock()
			return registry.KernelFault{Err: errors.New(fault)}
		})
		status, body, _ := post(t, ts, "/v1/"+route, `{"suite": `+graphSuite(freshSeed())+`}`)
		if status != 200 || !bytes.Contains(body, []byte(fault)) {
			t.Fatalf("%s: status %d, want 200 with the hook's error in the cell: %s", route, status, body)
		}
		mu.Lock()
		// graphSuite's curve spans 1..12 workers, one coordinate each.
		if len(attempts) != 12 {
			t.Errorf("%s: %d kernel coordinates reached the hook, want 12", route, len(attempts))
		}
		for c, n := range attempts {
			if n != 1 {
				t.Errorf("%s: %d attempts at workers=%d, want 1", route, n, c.Workers)
			}
		}
		mu.Unlock()
	}
}

// TestShedUnderLoad: with one admission slot and a slowed kernel, excess
// concurrent requests shed immediately with 429 and Retry-After instead of
// queueing.
func TestShedUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	registry.SetKernelFault(func(registry.KernelCall) registry.KernelFault {
		return registry.KernelFault{Delay: 50 * time.Millisecond}
	})
	defer registry.SetKernelFault(nil)

	const n = 6
	var wg sync.WaitGroup
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	seeds := [2]int{freshSeed(), freshSeed()}
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, hdr := post(t, ts, "/v1/sweep", `{"suite": `+graphSuite(seeds[i%2])+`}`)
			statuses[i] = st
			retryAfter[i] = hdr.Get("Retry-After")
		}()
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case 200:
			ok++
		case http.StatusTooManyRequests:
			shed++
			// Retry-After is derived from the route's live p50 latency and
			// must always be a positive integer number of seconds.
			if secs, err := strconv.Atoi(retryAfter[i]); err != nil || secs < 1 {
				t.Errorf("request %d shed with Retry-After %q; want a positive integer", i, retryAfter[i])
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d; single-slot admission under load must both serve and shed", ok, shed)
	}
	if got := s.shed.Value(); got != int64(shed) {
		t.Errorf("shed_total = %d, want %d", got, shed)
	}
	checkBudgetIntact(t)
}

// TestKernelTimePerRequest: a request's access-log kernel_ms counts only
// the kernel fills that request computed. The fault hook holds three cold
// requests over distinct graphs inside their fills together, a warm
// request runs while they are held, and then the per-request times sum
// exactly to the process-wide counter's delta, and the warm request's is 0.
func TestKernelTimePerRequest(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{AccessLog: &logBuf})
	warm := graphSuite(freshSeed())
	if status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+warm+`}`); status != 200 {
		t.Fatalf("prewarm: %d %s", status, body)
	}

	const cold = 3
	entered := make(chan struct{}, cold)
	release := make(chan struct{})
	registry.SetKernelFault(func(call registry.KernelCall) registry.KernelFault {
		// The hook sees each key of a fill; hold the fill at its first.
		if call.Workers == 1 {
			entered <- struct{}{}
			<-release
		}
		return registry.KernelFault{}
	})
	defer registry.SetKernelFault(nil)
	before := registry.KernelComputeTime()
	var wg sync.WaitGroup
	for range cold {
		body := `{"suite": ` + graphSuite(freshSeed()) + `}`
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("cold sweep: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("cold sweep: status %d", resp.StatusCode)
			}
		}()
	}
	for range cold {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(release)
			wg.Wait()
			t.Fatal("cold fills never reached the kernel together")
		}
	}
	status, body, _ := post(t, ts, "/v1/sweep", `{"suite": `+warm+`}`)
	close(release)
	wg.Wait()
	if status != 200 {
		t.Fatalf("warm sweep: %d %s", status, body)
	}
	delta := registry.KernelComputeTime() - before

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2+cold {
		t.Fatalf("access log has %d lines, want %d", len(lines), 2+cold)
	}
	kernel := make([]time.Duration, len(lines))
	for i, line := range lines {
		var entry struct {
			KernelMS float64 `json:"kernel_ms"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		kernel[i] = time.Duration(math.Round(entry.KernelMS * float64(time.Millisecond)))
	}
	// The cold requests finish only after the release, so the warm one
	// logged second.
	if kernel[1] != 0 {
		t.Errorf("warm request during cold fills logged kernel_ms %v, want 0", kernel[1])
	}
	var sum time.Duration
	for _, d := range kernel[2:] {
		if d <= 0 {
			t.Errorf("cold request logged kernel time %v", d)
		}
		sum += d
	}
	if sum != delta {
		t.Errorf("cold requests' kernel times sum to %v, the process-wide delta is %v", sum, delta)
	}
}
