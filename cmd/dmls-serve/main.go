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
//	GET  /healthz    liveness: "ok"; 503 "draining" during shutdown
//	GET  /metrics    Prometheus text exposition (counters, per-route latency
//	                 histograms, cache gauges)
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
// A cell whose evaluation fails, or panics, carries its own error in an
// otherwise complete 200; nothing retries it, because the Monte-Carlo
// kernel behind graph cells fails only on bad input or cancellation.
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
	})

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
