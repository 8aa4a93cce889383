package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/stats"
	"dmlscale/bench/internal/workload"
)

// sent is one request of a rung and what came back.
type sent struct {
	req              workload.Request
	trace            string
	due, start, done time.Time
	status           int
	bytes            int64
	digest           string
	err              error
}

// latency runs from the request's due time, so time spent waiting for a
// free connection behind a stalled one counts.
func (s sent) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the request actually left: waiting for a connection
// included.
func (s sent) lag() time.Duration { return s.start.Sub(s.due) }

func (s sent) ok() bool { return s.err == nil && s.status == http.StatusOK }

// post sends one request with a traceparent the access log echoes back.
func (s *server) post(ctx context.Context, req workload.Request, trace string) (status int, n int64, digest string, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return 0, 0, "", err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Traceparent", "00-"+trace+"-00000000000000a1-01")
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	h := sha256.New()
	n, err = io.Copy(h, resp.Body)
	return resp.StatusCode, n, hex.EncodeToString(h.Sum(nil)), err
}

// runRung sends a rung. A closed-loop rung sends each request when the
// previous answer arrives. An open-loop rung sends every request at its
// due time over at most conns keep-alive connections; a due request that
// finds every connection busy waits for one, so the rung's backlog shows
// in latency and lag rather than being shed.
func (s *server) runRung(ctx context.Context, rung workload.Rung, conns int) []sent {
	out := make([]sent, len(rung.Requests))
	for i, req := range rung.Requests {
		out[i] = sent{req: req, trace: fmt.Sprintf("%016x%016x", rung.Rate, i+1)}
	}
	if rung.Rate == workload.ClosedLoop {
		for i := range out {
			r := &out[i]
			r.due = time.Now()
			r.start = r.due
			r.status, r.bytes, r.digest, r.err = s.post(ctx, r.req, r.trace)
			r.done = time.Now()
		}
		return out
	}
	// One slot per request: the generator never blocks, so it stays on
	// schedule however far the connections fall behind.
	jobs := make(chan int, len(rung.Requests))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &out[i]
				r.start = time.Now()
				r.status, r.bytes, r.digest, r.err = s.post(ctx, r.req, r.trace)
				r.done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i, req := range rung.Requests {
		out[i].due = start.Add(req.Due)
		select {
		case <-time.After(time.Until(out[i].due)):
		case <-ctx.Done():
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// served is one server lifetime's measurements.
type served struct {
	setups    []float64 // seconds from exec to healthy and prewarmed, per launch
	rungs     [][]sent
	refCPU    time.Duration // server CPU during the closed-loop rung
	peakRSS   int64
	serverMs  map[string]float64 // access-log duration by trace id
	coalesced float64
	shed      float64
}

// serve launches dmls-serve launches times — each launch is timed from exec
// until the server is healthy and its prewarm requests are answered — and
// drives the given rungs against the last one. Every request, prewarm
// included, counts as attempted.
func (b *bench) serve(ctx context.Context, w *wl, rungs []workload.Rung, launches int) (served, error) {
	var res served
	var srv *server
	for i := 0; i < launches; i++ {
		logPath := filepath.Join(w.dir, fmt.Sprintf("access-%d.log", i))
		start := time.Now()
		s, err := b.launch(ctx, w.dir, w.in.ServeFlags, logPath, b.conns)
		if err != nil {
			return res, err
		}
		for j, req := range w.in.Prewarm {
			status, _, _, err := s.post(ctx, req, fmt.Sprintf("%016x%016x", 0, j+1))
			w.attempt(err == nil && status == http.StatusOK)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i < launches-1 {
			if _, err := s.stop(); err != nil {
				return res, err
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	for _, rung := range rungs {
		before, err := srv.cpu()
		if err != nil {
			return res, err
		}
		out := srv.runRung(ctx, rung, b.conns)
		after, err := srv.cpu()
		if err != nil {
			return res, err
		}
		if rung.Rate == workload.ClosedLoop {
			res.refCPU = after - before
		}
		for _, r := range out {
			w.attempt(r.ok())
		}
		res.rungs = append(res.rungs, out)
	}
	var err error
	if res.coalesced, err = srv.counter(ctx, "dmls_coalesced_total"); err != nil {
		return res, err
	}
	if res.shed, err = srv.counter(ctx, "dmls_shed_total"); err != nil {
		return res, err
	}
	stopped = true
	if res.peakRSS, err = srv.stop(); err != nil {
		return res, err
	}
	res.serverMs, err = accessLog(srv.logPath)
	return res, err
}

// maxLatencyMs is the tail-latency limit a rung must meet to count toward
// max_rate_rps.
const maxLatencyMs = 250

// servePhase measures serve-mix: serveLaunches timed launches, then the
// closed-loop reference rung and the rate ladder against the last one.
func (b *bench) servePhase(ctx context.Context, w *wl) error {
	res, err := b.serve(ctx, w, w.in.Rungs, serveLaunches)
	if err != nil {
		return err
	}
	b.checkServed(ctx, w, res)
	w.metric("setup_s", "s", res.setups)
	w.value("peak_rss_mb", "MB", float64(res.peakRSS)/1e6)
	maxRate := 0
	for i, rung := range res.rungs {
		rate := w.in.Rungs[i].Rate
		if rate == workload.ClosedLoop {
			var sec []float64
			byClass := map[string][]float64{}
			for _, r := range rung {
				if r.ok() {
					sec = append(sec, r.latency().Seconds())
					byClass[r.req.Class] = append(byClass[r.req.Class], msOf(r.latency()))
				}
			}
			w.metric("wall_s", "s", sec)
			w.value("cpu_s", "s", res.refCPU.Seconds()/float64(len(rung)))
			for class, l := range byClass {
				w.metric("lat_p50_ms.closed."+class, "ms", l)
			}
			continue
		}
		var lat, lagMs []float64
		failed := 0
		for _, r := range rung {
			if !r.ok() {
				failed++
				continue
			}
			lat = append(lat, msOf(r.latency()))
			lagMs = append(lagMs, msOf(r.lag()))
		}
		w.metric(fmt.Sprintf("lat_p50_ms.r%d", rate), "ms", lat)
		tail, p := stats.Tail(lat)
		w.run.Metrics[fmt.Sprintf("lat_p%d_ms.r%d", p, rate)] = results.Metric{Value: tail, Unit: "ms", N: len(lat), Q1: tail, Q3: tail}
		w.value(fmt.Sprintf("gen_lag_ms_max.r%d", rate), "ms", slices.Max(append(lagMs, 0)))
		// A growing backlog shows as lag rising through the rung's second half.
		n := len(lagMs)
		growing := n >= 4 && stats.Median(lagMs[3*n/4:]) > stats.Median(lagMs[n/2:3*n/4])+20
		if failed == 0 && tail <= maxLatencyMs && !growing {
			maxRate = rate
		}
	}
	w.value("max_rate_rps", "1/s", float64(maxRate))
	w.value("coalesced", "count", res.coalesced)
	w.value("shed", "count", res.shed)
	w.value("fail_ratio", "ratio", float64(w.run.Failed)/float64(w.run.Attempted))
	return nil
}

// checkServed applies the served-traffic oracles: every answer a 200,
// byte-identical bodies for identical requests, and the example classes
// byte-identical to their CLI invocations.
func (b *bench) checkServed(ctx context.Context, w *wl, res served) {
	refs := map[string]string{}
	for class, argv := range w.in.Examples {
		p := b.invoke(ctx, w.dir, nil, argv, false)
		w.attempt(p.err == nil)
		if p.err != nil {
			w.check("reference "+class, false, "%v", p.err)
		}
		refs[class] = p.digest
	}
	bad, mismatched := 0, map[string]int{}
	byBody := map[[32]byte]string{}
	for _, rung := range res.rungs {
		for _, r := range rung {
			if !r.ok() {
				bad++
				continue
			}
			key := sha256.Sum256(r.req.Body)
			ref, isExample := refs[r.req.Class]
			prev, repeated := byBody[key]
			if isExample && r.digest != ref || repeated && r.digest != prev {
				mismatched[r.req.Class]++
			}
			byBody[key] = r.digest
		}
	}
	w.check("served requests answered 200", bad == 0, "%d failed", bad)
	w.check("served bodies match their CLI invocation and each other", len(mismatched) == 0, "mismatches: %v", mismatched)
	for _, n := range mismatched {
		w.failed(n)
	}
}
