// Command dmls-serve runs the planning service: the sweep and planning
// engines behind a hardened HTTP/JSON API, so deployment tooling can ask
// "how many machines?" with a curl instead of a binary.
//
// Usage:
//
//	dmls-serve -addr :8080
//	dmls-serve -addr :8080 -max-inflight 4 -deadline 20s -max-cells 2048
//
// Endpoints:
//
//	POST /v1/sweep   {"suite": {...}}                 → dmls-sweep -format json output
//	POST /v1/plan    {"suite": {...}, "adaptive": true} → dmls-plan -format json output
//	GET  /healthz    liveness: "ok"; 200 "degraded" while a kernel circuit
//	                 breaker is open; 503 "draining" during shutdown
//	GET  /metrics    Prometheus text exposition (counters, per-route latency
//	                 histograms, breaker and cache gauges)
//
// Observability: every request carries a W3C traceparent (an incoming one
// is honored, otherwise a trace id is minted) echoed on the response;
// -access-log emits one structured JSON line per evaluation request with
// the phase breakdown; -debug-addr serves net/http/pprof on a separate
// listener so profiling is never exposed on the service address.
//
// A /v1/plan response is byte-identical to running dmls-plan -format json
// over the same suite with the same knobs. Requests past -max-inflight are
// shed immediately with 429 and Retry-After; each request evaluates under
// its own deadline (request "deadline" field, clamped to -max-deadline,
// default -deadline) threaded through the whole engine, so an expired or
// abandoned request frees its parallelism budget instead of wedging the
// server. SIGINT/SIGTERM starts a graceful drain: in-flight requests get
// -drain-timeout to finish before their contexts are cancelled.
//
// Each route has a kernel circuit breaker (-breaker-*). A request counts
// against it only when a cell failed with a transient kernel fault; a cell
// that fails on the client's own input (an unknown protocol kind, say)
// neither trips nor heals it. While a breaker is open, /v1/plan answers
// with bound-model estimates marked "degraded" and /v1/sweep sheds 503.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/registry"
	"dmlscale/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run wires flags, signals and the server lifecycle; split from main for
// testability.
func run(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("dmls-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		deadline     = fs.Duration("deadline", 30*time.Second, "default per-request evaluation deadline")
		maxDeadline  = fs.Duration("max-deadline", 2*time.Minute, "upper clamp on client-requested deadlines")
		maxInFlight  = fs.Int("max-inflight", 8, "max concurrently evaluating requests; excess sheds with 429")
		maxCells     = fs.Int("max-cells", 4096, "largest suite grid a request may expand to")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight requests on SIGTERM before their contexts are cancelled")
		parallelism  = fs.Int("parallel", 0, "process-wide parallelism budget; 0 means GOMAXPROCS")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables profiling")
		accessLog    = fs.String("access-log", "", "append structured JSON access-log lines to this file; \"-\" means stderr, empty disables")

		breakerWindow  = fs.Int("breaker-window", 20, "request outcomes in the kernel circuit breaker's rolling window")
		breakerMin     = fs.Int("breaker-min-samples", 5, "minimum outcomes in the window before the breaker may trip")
		breakerRatio   = fs.Float64("breaker-failure-ratio", 0.5, "failure ratio that opens the breaker (plans degrade to bound estimates, sweeps shed 503)")
		breakerOpenFor = fs.Duration("breaker-open-for", 15*time.Second, "how long an open breaker waits before admitting a half-open probe")
		chaosKernel    = fs.Int("chaos-kernel-errors", 0, "UNSAFE drill knob: fail the first N attempts of every kernel computation with a transient fault, for breaker and retry exercises")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallelism > 0 {
		core.SetParallelism(*parallelism)
	}

	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "dmls-serve: open access log: %v\n", err)
			return 1
		}
		defer f.Close()
		logW = f
	}

	srv := serve.New(serve.Config{
		Addr:            *addr,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MaxInFlight:     *maxInFlight,
		MaxCells:        *maxCells,
		DrainTimeout:    *drainTimeout,
		AccessLog:       logW,
		Breaker: serve.BreakerConfig{
			Window:       *breakerWindow,
			MinSamples:   *breakerMin,
			FailureRatio: *breakerRatio,
			OpenFor:      *breakerOpenFor,
		},
	})

	if n := *chaosKernel; n > 0 {
		// Chaos drill: every kernel coordinate fails its first n attempts
		// with a transient fault. With n within the retry policy's attempts
		// the service absorbs the faults (retries, no user-visible errors);
		// past it, failures surface, the breakers trip and the degraded
		// path serves — the loadtest script uses exactly this to rehearse
		// trip-and-recover.
		fmt.Fprintf(stderr, "dmls-serve: CHAOS: failing the first %d attempts of every kernel computation\n", n)
		registry.SetKernelFault(func(c registry.KernelCall) registry.KernelFault {
			if c.Attempt < n {
				return registry.KernelFault{
					Err:       fmt.Errorf("chaos: injected transient kernel fault (attempt %d of %d)", c.Attempt+1, n),
					Transient: true,
				}
			}
			return registry.KernelFault{}
		})
		defer registry.SetKernelFault(nil)
	}

	if *debugAddr != "" {
		// Profiling lives on its own listener so it is never exposed on the
		// service address: the debug mux carries pprof and nothing else.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(stderr, "dmls-serve: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				fmt.Fprintf(stderr, "dmls-serve: pprof listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stderr, "dmls-serve: listening on %s\n", *addr)
	if err := srv.Run(ctx); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "dmls-serve: %v\n", err)
		return 1
	}
	fmt.Fprintln(stderr, "dmls-serve: drained, bye")
	return 0
}
