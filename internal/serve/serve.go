// Package serve exposes the evaluation and planning engines as a hardened
// HTTP/JSON service: POST /v1/sweep and /v1/plan accept the same suite
// documents the CLIs read and return the same JSON exports byte-for-byte,
// so a request against a running server and an offline dmls-plan invocation
// over the same suite are interchangeable evidence.
//
// Robustness is the point, not an afterthought:
//
//   - Admission control: at most MaxInFlight evaluation requests run at
//     once; excess load is shed immediately with 429 and Retry-After
//     instead of queueing until every request misses its deadline.
//   - Per-request deadlines: every evaluation runs under a context with a
//     deadline (the request's own, clamped to MaxDeadline, defaulting to
//     DefaultDeadline), threaded through the whole engine down to the
//     Monte-Carlo trial loop; expiry returns 504 with no goroutine or
//     budget slot left behind.
//   - Oversized grids are rejected 4xx from catalog arithmetic alone,
//     before any model is built.
//   - Panic containment: a panicking request becomes a structured 500 and
//     the server keeps serving.
//   - Graceful drain: Run stops accepting, lets in-flight requests finish
//     for DrainTimeout, then cancels their contexts and closes.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// Config sizes the server's robustness envelope. The zero value is usable:
// every field has a production-shaped default.
type Config struct {
	// Addr is the listen address; default ":8080".
	Addr string
	// DefaultDeadline bounds requests that name no deadline of their own;
	// default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines; default 2m.
	MaxDeadline time.Duration
	// MaxInFlight caps concurrently evaluating requests; excess sheds with
	// 429. Default 8.
	MaxInFlight int
	// MaxCells rejects suites expanding past this many grid cells before
	// any model work; default 4096.
	MaxCells int
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// shutdown begins before cancelling their contexts; default 10s.
	DrainTimeout time.Duration
	// AccessLog, when non-nil, receives one structured JSON line per
	// evaluation request: trace id, status, duration and the evaluation's
	// phase breakdown (build/sample/plan/kernel time). Writes are
	// serialized; nil disables access logging.
	AccessLog io.Writer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is the planning service. Construct with New, mount Handler on any
// mux or listener, or let Run own the listen/drain lifecycle.
type Server struct {
	cfg Config

	// baseCtx parents every request context; cancelling it is the drain
	// deadline's hard stop for in-flight evaluations.
	baseCtx context.Context
	cancel  context.CancelFunc

	// sem admits at most MaxInFlight evaluation requests.
	sem chan struct{}

	draining  atomic.Bool
	start     time.Time
	boundAddr atomic.Pointer[string]

	// set registers every counter, histogram and gauge below for the
	// Prometheus exposition of GET /metrics.
	set             *obs.Set
	requests        *obs.Counter
	sweeps          *obs.Counter
	plans           *obs.Counter
	shed            *obs.Counter
	coalescedTotal  *obs.Counter
	badRequests     *obs.Counter
	deadlineExpired *obs.Counter
	clientGone      *obs.Counter
	panics          *obs.Counter
	inFlight        atomic.Int64

	// coal single-flights identical in-flight /v1/sweep and /v1/plan
	// requests: followers replay the leader's 200 instead of re-evaluating.
	coal coalescer

	durSweep   *obs.Histogram
	durPlan    *obs.Histogram
	cellsSweep *obs.Histogram
	cellsPlan  *obs.Histogram

	accessLog io.Writer
	logMu     sync.Mutex

	mux *http.ServeMux
}

// New builds a server from cfg (zero-value fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		baseCtx:   ctx,
		cancel:    cancel,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		start:     time.Now(),
		accessLog: cfg.AccessLog,
		mux:       http.NewServeMux(),
	}
	s.coal.inflight = make(map[string]*coalesceEntry)
	s.registerMetrics()
	s.mux.Handle("POST /v1/sweep", s.contained("sweep", s.coalesce("sweep", s.handleSweep)))
	s.mux.Handle("POST /v1/plan", s.contained("plan", s.coalesce("plan", s.handlePlan)))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// registerMetrics builds the server's instrument set: request counters,
// per-route request-duration and cells-evaluated histograms, and scrape-time
// gauges over server and kernel-cache state.
func (s *Server) registerMetrics() {
	s.set = obs.NewSet()
	s.requests = s.set.NewCounter("dmls_requests_total", "Evaluation requests received (sweep and plan), including shed and rejected ones.")
	s.sweeps = s.set.NewCounter("dmls_sweeps_total", "Sweep requests answered successfully.")
	s.plans = s.set.NewCounter("dmls_plans_total", "Plan requests answered successfully.")
	s.shed = s.set.NewCounter("dmls_shed_total", "Requests shed with 429 at admission because MaxInFlight was reached.")
	s.coalescedTotal = s.set.NewCounter("dmls_coalesced_total", "Requests answered by replaying an identical in-flight request's 200 response (single-flight coalescing).")
	s.badRequests = s.set.NewCounter("dmls_bad_requests_total", "Requests rejected 4xx for malformed bodies, oversized grids or invalid knobs.")
	s.deadlineExpired = s.set.NewCounter("dmls_deadline_expired_total", "Evaluations that hit their per-request deadline (504).")
	s.clientGone = s.set.NewCounter("dmls_client_gone_total", "Evaluations cancelled by client disconnect or drain hard-stop.")
	s.panics = s.set.NewCounter("dmls_panics_total", "Requests that panicked and were contained as 500s.")

	dur := "Evaluation request wall time in seconds, by route."
	s.durSweep = s.set.NewHistogram("dmls_request_duration_seconds", dur, obs.DurationBuckets(), obs.Label{Key: "route", Value: "sweep"})
	s.durPlan = s.set.NewHistogram("dmls_request_duration_seconds", dur, obs.DurationBuckets(), obs.Label{Key: "route", Value: "plan"})
	cells := "Grid cells expanded per evaluated request, by route."
	s.cellsSweep = s.set.NewHistogram("dmls_request_cells", cells, obs.CountBuckets(), obs.Label{Key: "route", Value: "sweep"})
	s.cellsPlan = s.set.NewHistogram("dmls_request_cells", cells, obs.CountBuckets(), obs.Label{Key: "route", Value: "plan"})

	s.set.NewGauge("dmls_in_flight", "Evaluation requests currently executing.", func() float64 { return float64(s.inFlight.Load()) })
	s.set.NewGauge("dmls_draining", "1 once graceful shutdown has begun, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	s.set.NewGauge("dmls_uptime_seconds", "Seconds since the server was constructed.", func() float64 { return time.Since(s.start).Seconds() })
	s.set.NewGauge("dmls_parallelism", "Worker slots in the process-wide evaluation budget.", func() float64 { return float64(core.Parallelism()) })
	s.set.NewGauge("dmls_kernel_compute_seconds_total", "Cumulative seconds spent computing Monte-Carlo kernels (cache misses only).", func() float64 { return registry.KernelComputeTime().Seconds() })
	cacheGauge := func(pick func(registry.CacheStats) float64) func() float64 {
		return func() float64 { return pick(registry.SnapshotCaches()) }
	}
	s.set.NewGauge("dmls_kernel_cache_hit_ratio", "Monte-Carlo estimate cache hit ratio since process start (0 when unused).", cacheGauge(func(cs registry.CacheStats) float64 { return cs.Estimates.HitRatio() }))
	s.set.NewGauge("dmls_kernel_cache_entries", "Entries resident in the Monte-Carlo estimate cache.", cacheGauge(func(cs registry.CacheStats) float64 { return float64(cs.Estimates.Entries) }))
}

// Handler returns the server's routes, each wrapped in panic containment.
func (s *Server) Handler() http.Handler {
	return s.mux
}

// Close cancels the server's base context, aborting any in-flight
// evaluations. Run calls it as the drain deadline's hard stop; tests call
// it directly.
func (s *Server) Close() {
	s.cancel()
}

// retryAfter derives the Retry-After value for a shed response from the
// route's live latency distribution: the p50 request duration, rounded up
// to whole seconds, floored at 1s. A client that waits one median request
// time has real odds of finding a free slot; before any traffic exists the
// histogram is empty and the floor answers.
func (s *Server) retryAfter(route string) string {
	var h *obs.Histogram
	switch route {
	case "sweep":
		h = s.durSweep
	case "plan":
		h = s.durPlan
	}
	secs := 1.0
	if h != nil {
		if p50 := h.Snapshot().Quantile(0.5); p50 > 0 {
			secs = math.Ceil(p50)
		}
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(int(secs))
}

// Addr returns the bound listen address once Run has opened its listener
// ("" before that) — the actual port when cfg.Addr asked for :0.
func (s *Server) Addr() string {
	if p := s.boundAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains:
// stop accepting, let in-flight requests finish for DrainTimeout, cancel
// their contexts, close. It returns nil after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.cancel()
		return err
	}
	addr := ln.Addr().String()
	s.boundAddr.Store(&addr)
	srv := &http.Server{
		Handler: s.Handler(),
		BaseContext: func(net.Listener) context.Context {
			return s.baseCtx
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.cancel()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	// Whether the drain was clean or timed out, in-flight evaluations must
	// not outlive the process: cancel their base context, then close.
	s.cancel()
	srv.Close()
	<-errc // ListenAndServe has returned http.ErrServerClosed
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// apiError is the structured error body every non-200 response carries.
type apiError struct {
	Error string `json:"error"`
}

// writeError emits a structured error response.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

// reqInfoKey carries the per-request reqInfo through the handler's context
// so handlers can report evaluation stats back to the observation layer.
type reqInfoKey struct{}

// reqInfo is what the containment wrapper learns about a request after the
// handler ran: which route, how large the grid was, and where the wall time
// went. Handlers fill it through noteStats.
type reqInfo struct {
	route    string
	stats    scenario.EvalStats
	statsSet bool
}

// noteStats records the evaluation's stats on the request's reqInfo, if one
// is attached (it always is under contained; a no-op in bare handler tests).
func noteStats(r *http.Request, st scenario.EvalStats) {
	if ri, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
		ri.stats = st
		ri.statsSet = true
	}
}

// statusRecorder remembers the status code a handler wrote so the
// containment wrapper can observe and log it after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// contained wraps an evaluation handler in the shared robustness and
// observability layers: request counting, admission control, panic
// containment, trace propagation (an incoming W3C traceparent is honored,
// otherwise a fresh trace id is minted; either way the response carries
// one), per-route latency histograms and the structured access log. The
// coalescing layer inside it hands every handler a responseBuffer and
// copies it out only after the handler returns, so a panic anywhere in
// decode, evaluation or encoding turns into a clean structured 500 — never
// a half-written 200.
func (s *Server) contained(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			trace = obs.NewTraceID()
		}
		w.Header().Set("Traceparent", obs.FormatTraceparent(trace, obs.NewSpanID()))
		ri := &reqInfo{route: route}
		ctx := obs.WithTrace(r.Context(), trace)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				writeError(rec, http.StatusInternalServerError, "internal: request panicked: %v", v)
			}
			s.observeRequest(rec, r, trace, ri, time.Since(start))
		}()
		s.requests.Inc()
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			rec.Header().Set("Retry-After", s.retryAfter(route))
			writeError(rec, http.StatusTooManyRequests, "server at capacity (%d requests in flight); retry", s.cfg.MaxInFlight)
			return
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			<-s.sem
		}()
		h(rec, r)
	})
}

// accessEntry is one structured access-log line: request identity, outcome,
// and the evaluation's phase breakdown in milliseconds. Phase fields are
// summed across cells, so under parallel evaluation they legitimately
// exceed duration_ms; kernel_ms attributes (overlaps) the others.
type accessEntry struct {
	Time       string  `json:"time"`
	TraceID    string  `json:"trace_id"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Route      string  `json:"route"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Cells      int     `json:"cells,omitempty"`
	Evaluated  int     `json:"evaluated,omitempty"`
	Pruned     int     `json:"pruned,omitempty"`
	Cancelled  int     `json:"cancelled,omitempty"`
	BuildMS    float64 `json:"build_ms,omitempty"`
	SampleMS   float64 `json:"sample_ms,omitempty"`
	PlanMS     float64 `json:"plan_ms,omitempty"`
	BoundMS    float64 `json:"bound_ms,omitempty"`
	RefineMS   float64 `json:"refine_ms,omitempty"`
	KernelMS   float64 `json:"kernel_ms,omitempty"`
	Resumed    int     `json:"resumed,omitempty"`
}

// observeRequest feeds the per-route histograms and, when configured, emits
// one access-log line. Runs after the handler (or its panic recovery).
func (s *Server) observeRequest(rec *statusRecorder, r *http.Request, trace obs.TraceID, ri *reqInfo, elapsed time.Duration) {
	switch ri.route {
	case "sweep":
		s.durSweep.Observe(elapsed.Seconds())
		if ri.statsSet {
			s.cellsSweep.Observe(float64(ri.stats.Scenarios))
		}
	case "plan":
		s.durPlan.Observe(elapsed.Seconds())
		if ri.statsSet {
			s.cellsPlan.Observe(float64(ri.stats.Scenarios))
		}
	}
	if s.accessLog == nil {
		return
	}
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	entry := accessEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:    trace.String(),
		Method:     r.Method,
		Path:       r.URL.Path,
		Route:      ri.route,
		Status:     status,
		DurationMS: ms(elapsed),
	}
	if ri.statsSet {
		entry.Cells = ri.stats.Scenarios
		entry.Evaluated = ri.stats.Evaluated
		entry.Pruned = ri.stats.Pruned
		entry.Cancelled = ri.stats.Cancelled
		entry.BuildMS = ms(ri.stats.BuildTime)
		entry.SampleMS = ms(ri.stats.SampleTime)
		entry.PlanMS = ms(ri.stats.PlanTime)
		entry.BoundMS = ms(ri.stats.BoundTime)
		entry.RefineMS = ms(ri.stats.RefineTime)
		entry.KernelMS = ms(ri.stats.KernelComputeTime)
		entry.Resumed = ri.stats.ResumedCells
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.logMu.Lock()
	s.accessLog.Write(line)
	s.logMu.Unlock()
}

// requestCtx derives the evaluation context: the request's context (itself
// parented on the server's base context, so drain hard-stop and client
// disconnect both propagate), bounded by the effective deadline.
func (s *Server) requestCtx(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadline > 0 {
		d = min(deadline, s.cfg.MaxDeadline)
	}
	return context.WithTimeout(r.Context(), d)
}

// evalFailure maps an engine-returned context error onto the wire: 504 for
// an expired per-request deadline, a counted no-op for a vanished client or
// a drain hard-stop (there is no one left to answer). Returns true when it
// consumed the error.
func (s *Server) evalFailure(w http.ResponseWriter, r *http.Request, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineExpired.Inc()
		writeError(w, http.StatusGatewayTimeout, "evaluation deadline expired: %v", err)
		return true
	case errors.Is(err, context.Canceled):
		s.clientGone.Inc()
		// Client disconnect or drain hard-stop: the connection is dead or
		// dying; 503 is best-effort for the drain case.
		writeError(w, http.StatusServiceUnavailable, "evaluation cancelled: %v", err)
		return true
	}
	return false
}

// decodeRequest strictly decodes a request body, as the coalescing layer
// read it, into dst, rejecting unknown fields and trailing garbage. Suite
// sub-documents stay raw, to be re-decoded through scenario's own strict
// path.
func decodeRequest(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// decodeSuite turns the raw suite sub-document into a validated suite and
// enforces the server's grid cap before any model work. The cap check is
// catalog arithmetic on the lazy cell view — an oversized or malformed grid
// never reaches the engine.
func (s *Server) decodeSuite(raw json.RawMessage) (scenario.Suite, error) {
	if len(raw) == 0 {
		return scenario.Suite{}, fmt.Errorf("missing \"suite\"")
	}
	suite, err := scenario.DecodeSuite(bytes.NewReader(raw))
	if err != nil {
		return scenario.Suite{}, err
	}
	cs, err := suite.Cells()
	if err != nil {
		return scenario.Suite{}, err
	}
	if cs.Len() > s.cfg.MaxCells {
		return scenario.Suite{}, fmt.Errorf("suite expands to %d cells, over the server's limit of %d", cs.Len(), s.cfg.MaxCells)
	}
	return suite, nil
}

// SweepRequest is the POST /v1/sweep body: the suite document the CLIs
// read, plus optional per-request knobs.
type SweepRequest struct {
	// Suite is the suite (or single-scenario) document, verbatim.
	Suite json.RawMessage `json:"suite"`
	// Parallelism caps this request's suite-level workers within the shared
	// budget; 0 means no extra cap.
	Parallelism int `json:"parallelism,omitempty"`
	// Deadline bounds the evaluation (Go duration string, e.g. "30s"),
	// clamped to the server's MaxDeadline; empty means DefaultDeadline.
	Deadline string `json:"deadline,omitempty"`
}

// handleSweep evaluates a suite and responds with the exact document
// dmls-sweep -format json writes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, body []byte) {
	var req SweepRequest
	if err := decodeRequest(body, &req); err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	deadline, err := parseDeadline(req.Deadline)
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	suite, err := s.decodeSuite(req.Suite)
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, deadline)
	defer cancel()
	results, st, err := scenario.EvaluateSuiteStatsCtx(ctx, suite, req.Parallelism)
	noteStats(r, st)
	if s.evalFailure(w, r, err) {
		return
	}
	s.sweeps.Inc()
	// w is the coalescing layer's buffer, and the writer fails only before
	// its first byte (on a NaN or ±Inf), so the error still gets a clean 500.
	w.Header().Set("Content-Type", "application/json")
	if err := scenario.WriteResultsJSON(w, suite.Name, results); err != nil {
		writeError(w, http.StatusInternalServerError, "encode results: %v", err)
	}
}

// PlanRequest is the POST /v1/plan body: the planning suite plus the same
// knobs dmls-plan exposes as flags. MaxTime and MaxTimeSeconds are two
// spellings of one budget — setting both is a conflict, rejected 400.
type PlanRequest struct {
	// Suite is the suite (or single-scenario) document, verbatim.
	Suite json.RawMessage `json:"suite"`
	// Objective overrides the suite's own ranking objective: tta, cost or
	// pareto.
	Objective string `json:"objective,omitempty"`
	// Adaptive prunes cells whose optimistic bound is already dominated
	// (dmls-plan -adaptive).
	Adaptive bool `json:"adaptive,omitempty"`
	// Refine runs this many rounds of frontier refinement (dmls-plan
	// -refine).
	Refine int `json:"refine,omitempty"`
	// MaxCost is the cost budget per run; 0 means unconstrained.
	MaxCost float64 `json:"max_cost,omitempty"`
	// MaxTimeSeconds is the wall-time budget per run, in seconds.
	MaxTimeSeconds float64 `json:"max_time_seconds,omitempty"`
	// MaxTime is the same budget as a Go duration string ("90m", "2h").
	// Conflicts with MaxTimeSeconds.
	MaxTime string `json:"max_time,omitempty"`
	// Parallelism caps this request's suite-level workers within the shared
	// budget; 0 means no extra cap.
	Parallelism int `json:"parallelism,omitempty"`
	// Deadline bounds the planning pass (Go duration string), clamped to
	// the server's MaxDeadline; empty means DefaultDeadline.
	Deadline string `json:"deadline,omitempty"`
}

// options validates the request's planner knobs into planner.Options.
func (req PlanRequest) options() (planner.Options, error) {
	if req.Refine < 0 {
		return planner.Options{}, fmt.Errorf("negative refine %d", req.Refine)
	}
	if req.MaxCost < 0 {
		return planner.Options{}, fmt.Errorf("negative max_cost %g", req.MaxCost)
	}
	if req.MaxTimeSeconds < 0 {
		return planner.Options{}, fmt.Errorf("negative max_time_seconds %g", req.MaxTimeSeconds)
	}
	opts := planner.Options{
		Prune:          req.Adaptive,
		RefineRounds:   req.Refine,
		MaxCost:        req.MaxCost,
		MaxTimeSeconds: req.MaxTimeSeconds,
	}
	if req.MaxTime != "" {
		if req.MaxTimeSeconds != 0 {
			return planner.Options{}, fmt.Errorf("max_time and max_time_seconds both set; pick one")
		}
		d, err := time.ParseDuration(req.MaxTime)
		if err != nil {
			return planner.Options{}, fmt.Errorf("bad max_time: %v", err)
		}
		if d < 0 {
			return planner.Options{}, fmt.Errorf("negative max_time %v", d)
		}
		opts.MaxTimeSeconds = d.Seconds()
	}
	return opts, nil
}

// handlePlan plans a suite and responds with the exact document dmls-plan
// -format json writes, so served and offline plans are byte-comparable.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, body []byte) {
	var req PlanRequest
	if err := decodeRequest(body, &req); err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	deadline, err := parseDeadline(req.Deadline)
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	obj, err := planner.ParseObjective(req.Objective)
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	if req.Objective == "" {
		obj = "" // defer to the suite's own objective
	}
	suite, err := s.decodeSuite(req.Suite)
	if err != nil {
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	ctx, cancel := s.requestCtx(r, deadline)
	defer cancel()
	report, st, err := planner.PlanSuiteCtx(ctx, suite, obj, req.Parallelism, opts)
	noteStats(r, st)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// Suite-shape errors the cap check could not see (bad objective in
		// the suite file, negative refine) are the client's.
		s.badRequests.Inc()
		writeError(w, http.StatusBadRequest, "bad plan request: %v", err)
		return
	}
	if s.evalFailure(w, r, err) {
		return
	}
	s.plans.Inc()
	// As in handleSweep, an encode error comes before the first byte.
	w.Header().Set("Content-Type", "application/json")
	if err := report.WriteJSON(w); err != nil {
		writeError(w, http.StatusInternalServerError, "encode plans: %v", err)
	}
}

// parseDeadline parses an optional request deadline.
func parseDeadline(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad deadline: %v", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("non-positive deadline %v", d)
	}
	return d, nil
}

// handleHealthz answers liveness probes: "ok" while serving, and 503
// "draining" once shutdown has begun so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// handleMetrics serves the instrument set in Prometheus text exposition
// format, marked no-store: a scrape or dashboard poll must never see a
// cached snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	s.set.WritePrometheus(w)
}
