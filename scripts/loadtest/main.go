// Command loadtest replays a query mix from the example suites against a
// running dmls-serve and summarizes what the service did under pressure:
// request latencies (p50/p99 of successful requests), how much load was
// shed with 429, and whether /healthz answered throughout. scripts/
// loadtest.sh drives it, prints the summary and, when OUT is set, also
// writes it to that path.
//
// Exit is non-zero when the service misbehaved: any request neither served
// nor cleanly shed, zero successful requests, or a failed liveness probe.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type summary struct {
	Benchmark       string  `json:"benchmark"`
	Requests        int     `json:"requests"`
	Concurrency     int     `json:"concurrency"`
	MaxInFlight     int     `json:"server_max_inflight"`
	OK              int64   `json:"ok"`
	Shed            int64   `json:"shed"`
	Errors          int64   `json:"errors"`
	ShedRate        float64 `json:"shed_rate"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	HealthzFailures int64   `json:"healthz_failures"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

func main() {
	var (
		base        = flag.String("base", "http://127.0.0.1:18080", "dmls-serve base URL")
		suitesDir   = flag.String("suites", "examples/suites", "directory of suite JSON files to replay")
		requests    = flag.Int("requests", 60, "total requests to fire")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		maxInFlight = flag.Int("server-max-inflight", 0, "server's -max-inflight, echoed into the summary")
	)
	flag.Parse()

	paths, err := filepath.Glob(filepath.Join(*suitesDir, "*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "loadtest: no suites under %s\n", *suitesDir)
		os.Exit(1)
	}
	sort.Strings(paths)
	// The replayed mix: every example suite as both a sweep and a plan
	// request, round-robined across the request budget.
	var bodies []struct{ path, body string }
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		doc := string(bytes.TrimSpace(raw))
		bodies = append(bodies,
			struct{ path, body string }{"/v1/sweep", `{"suite": ` + doc + `}`},
			struct{ path, body string }{"/v1/plan", `{"suite": ` + doc + `, "adaptive": true}`},
		)
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	var ok, shed, errs, healthzFailures atomic.Int64
	latencies := make([]time.Duration, *requests)
	var latMu sync.Mutex
	var latN int

	// Liveness probes run through the whole storm: shedding is fine,
	// failing to answer /healthz is not.
	probeStop := make(chan struct{})
	var probeWg sync.WaitGroup
	probeWg.Add(1)
	go func() {
		defer probeWg.Done()
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			resp, err := client.Get(*base + "/healthz")
			if err != nil {
				healthzFailures.Add(1)
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					healthzFailures.Add(1)
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, *concurrency)
	for i := 0; i < *requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			mix := bodies[i%len(bodies)]
			t0 := time.Now()
			resp, err := client.Post(*base+mix.path, "application/json", bytes.NewReader([]byte(mix.body)))
			if err != nil {
				errs.Add(1)
				fmt.Fprintf(os.Stderr, "loadtest: request %d: %v\n", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case 200:
				ok.Add(1)
				latMu.Lock()
				latencies[latN] = time.Since(t0)
				latN++
				latMu.Unlock()
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				errs.Add(1)
				fmt.Fprintf(os.Stderr, "loadtest: request %d (%s): status %d\n", i, mix.path, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(probeStop)
	probeWg.Wait()

	lats := latencies[:latN]
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}

	s := summary{
		Benchmark:       "loadtest_serve_query_mix",
		Requests:        *requests,
		Concurrency:     *concurrency,
		MaxInFlight:     *maxInFlight,
		OK:              ok.Load(),
		Shed:            shed.Load(),
		Errors:          errs.Load(),
		ShedRate:        float64(shed.Load()) / float64(*requests),
		P50Ms:           pct(0.50),
		P99Ms:           pct(0.99),
		HealthzFailures: healthzFailures.Load(),
		ElapsedSeconds:  elapsed.Seconds(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(s)

	if s.Errors > 0 || s.OK == 0 || s.HealthzFailures > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: FAILED: ok=%d shed=%d errors=%d healthz_failures=%d\n",
			s.OK, s.Shed, s.Errors, s.HealthzFailures)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadtest: ok=%d shed=%d (rate %.2f) p50=%.1fms p99=%.1fms healthz clean\n",
		s.OK, s.Shed, s.ShedRate, s.P50Ms, s.P99Ms)
}
