package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/stats"
	"dmlscale/bench/internal/workload"
)

// tracePhase is a workload's traced run. It serves the workload's replayed
// requests from a live dmls-serve for the HTTP path's numbers, then
// answers the same requests in fresh dmlsprobe processes — traced,
// untraced and through the in-process handler — and runs the layer probes.
// Every answer must equal every other, and a CLI workload's must equal the
// stdout of the CLI run at the machine's default parallelism.
func (b *bench) tracePhase(ctx context.Context, w *wl) error {
	res, err := b.serve(ctx, w, []workload.Rung{{Rate: workload.ClosedLoop, Requests: w.in.Replay()}}, 1)
	if err != nil {
		return err
	}
	b.checkServed(ctx, w, res)
	var servedDigests []string
	var serverMs, waitMs, size []float64
	for _, r := range res.rungs[0] {
		servedDigests = append(servedDigests, r.digest)
		sms := res.serverMs[r.trace]
		serverMs = append(serverMs, sms)
		waitMs = append(waitMs, msOf(r.latency())-sms)
		size = append(size, float64(r.bytes))
	}
	w.value("dmls-serve.server_ms_p50", "ms", stats.Median(serverMs))
	tail, _ := stats.Tail(waitMs)
	w.value("dmls-serve.wait_ms_p95", "ms", tail)
	w.value("dmls-serve.response_bytes", "bytes", stats.Median(size))
	w.value("serve.coalesced", "count", res.coalesced)
	w.value("serve.shed", "count", res.shed)

	want := servedDigests
	if !w.in.IsServe() {
		p := b.invoke(ctx, w.dir, nil, w.in.Command, false)
		w.attempt(p.err == nil)
		if p.err != nil {
			return p.err
		}
		want = []string{p.digest}
		d := countDiff(servedDigests, want)
		w.failed(d)
		w.check("served answer equals the CLI's", d == 0, "served %v, CLI %s", servedDigests, p.digest)
		if w.in.ParetoPruned != nil {
			b.paretoOracle(ctx, w)
		}
	}

	probe := func(mode string) (results.ProbeOutput, error) {
		p := b.invoke(ctx, w.dir, oneCore, []string{"dmlsprobe", "-inputs", "inputs.json", "-mode", mode}, true)
		w.attempt(p.err == nil)
		if p.err != nil {
			return results.ProbeOutput{}, p.err
		}
		var out results.ProbeOutput
		if err := json.Unmarshal(p.stdout, &out); err != nil {
			return out, fmt.Errorf("dmlsprobe -mode %s: %w", mode, err)
		}
		if mode != "layers" {
			d := countDiff(out.Digests, want)
			w.failed(d)
			w.check(mode+" in-process answers equal the served ones", d == 0, "%d of %d answers differ", d, len(want))
		}
		return out, nil
	}
	// The tracing overhead is small against this machine's run-to-run
	// noise, so it is the median over several traced/untraced pairs, each
	// pair alternating which pass runs first.
	var traced results.ProbeOutput
	var overhead []float64
	for i := 0; i < overheadPairs; i++ {
		order := []string{"traced", "untraced"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		wall := map[string]float64{}
		for _, mode := range order {
			out, err := probe(mode)
			if err != nil {
				return err
			}
			wall[mode] = out.WallMs
			if mode == "traced" && i == 0 {
				traced = out
			}
		}
		overhead = append(overhead, 100*(wall["traced"]-wall["untraced"])/wall["untraced"])
	}
	handler, err := probe("handler")
	if err != nil {
		return err
	}
	layers, err := probe("layers")
	if err != nil {
		return err
	}
	for name, m := range traced.Metrics {
		w.run.Metrics[name] = m
	}
	for name, m := range layers.Metrics {
		w.run.Metrics[name] = m
	}
	w.metric("trace.overhead_pct", "%", overhead)
	w.metric("serve.handler_ms", "ms", handler.LatenciesMs)
	return nil
}

// overheadPairs is how many traced/untraced pass pairs the tracing
// overhead takes the median of.
const overheadPairs = 3

// countDiff counts positions where two digest lists differ, lengths included.
func countDiff(a, b []string) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
