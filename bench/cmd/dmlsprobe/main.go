// Command dmlsprobe runs one in-process measurement of one workload and
// prints it as a JSON object on stdout. dmlsbench builds it from the
// checkout and runs each measurement in a fresh process, so every pass
// starts from cold caches, as a CLI invocation does.
//
//	dmlsprobe -inputs <work dir>/inputs.json -mode traced|untraced|handler|layers
//
// Modes: traced and untraced answer the workload's requests in-process
// (probe.Pass), handler replays them through the service's HTTP handler,
// layers times each layer's primitive. Everything runs at parallelism 1, so
// a pass's span self times add up to its wall time.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/workload"
	"dmlscale/bench/probe"
	"dmlscale/internal/core"
)

func main() {
	inputs := flag.String("inputs", "inputs.json", "the workload's inputs.json, as dmlsbench writes it")
	mode := flag.String("mode", "", "traced, untraced, handler or layers")
	flag.Parse()
	out, err := run(*inputs, *mode)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmlsprobe: %v\n", err)
		os.Exit(1)
	}
}

func run(path, mode string) (results.ProbeOutput, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return results.ProbeOutput{}, err
	}
	var in workload.Inputs
	if err := json.Unmarshal(raw, &in); err != nil {
		return results.ProbeOutput{}, fmt.Errorf("%s: %w", path, err)
	}
	core.SetParallelism(1)
	ctx := context.Background()
	switch mode {
	case "traced", "untraced":
		res, err := probe.Pass(ctx, in, mode == "traced")
		return results.ProbeOutput{WallMs: ms(res.Wall), Digests: res.Digests, Metrics: res.Metrics}, err
	case "handler":
		lat, digests, err := probe.Handler(ctx, in)
		out := results.ProbeOutput{Digests: digests}
		for _, d := range lat {
			out.LatenciesMs = append(out.LatenciesMs, ms(d))
		}
		return out, err
	case "layers":
		m, err := probe.Layers(ctx, in)
		return results.ProbeOutput{Metrics: m}, err
	}
	return results.ProbeOutput{}, fmt.Errorf("unknown -mode %q (traced, untraced, handler, layers)", mode)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
