// Command dmlsbench is the repository's benchmark. It builds dmls-plan,
// dmls-sweep and dmls-serve from the checkout, generates every workload's
// inputs from -seed, measures the end-to-end phase with tracing off — each
// CLI repetition and each server launch its own process — and makes a
// traced run per workload for the per-layer breakdown. It checks every
// answer against its oracles, prints each metric as
//
//	workload metric value unit n q1 q3
//
// appends every run, with its raw samples and the machine it ran on, to a
// results file benchcmp compares, and exits 1 if any oracle failed. When
// exactly one workload and one phase ran, the last line is one JSON object
// carrying the metrics BENCHMARK.json names for that phase.
//
// Run it from the checkout root through run.sh, which builds it with a
// build cache inside the checkout:
//
//	bash bench/run.sh -seed 1
//	bash bench/run.sh --workload plan-grid --seed 3 --seconds 40 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"dmlscale/bench/internal/results"
	"dmlscale/bench/internal/stats"
	"dmlscale/bench/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's shared state.
type bench struct {
	root   string // checkout root
	binDir string
	conns  int // client connections to dmls-serve
}

func (b *bench) bin(name string) string { return filepath.Join(b.binDir, name) }

// wl is one workload phase in progress.
type wl struct {
	in  workload.Inputs
	dir string
	run results.Run
}

func (w *wl) attempt(ok bool) {
	w.run.Attempted++
	if !ok {
		w.run.Failed++
	}
}

func (w *wl) failed(n int) { w.run.Failed += n }

func (w *wl) check(name string, ok bool, format string, args ...any) {
	o := results.Oracle{Name: name, OK: ok}
	if !ok {
		o.Detail = fmt.Sprintf(format, args...)
	}
	w.run.Oracles = append(w.run.Oracles, o)
}

// checkIdentical checks that repeated invocations wrote the same output;
// every output but the most common one counts as failed.
func (w *wl) checkIdentical(name string, digests map[string]int) {
	total, most := 0, 0
	for _, n := range digests {
		total += n
		most = max(most, n)
	}
	w.failed(total - most)
	w.check(name, len(digests) <= 1, "%d distinct digests", len(digests))
}

// metric records the median of samples, with the samples behind it.
func (w *wl) metric(name, unit string, samples []float64) {
	q1, med, q3 := stats.Quartiles(samples)
	w.run.Metrics[name] = results.Metric{Value: med, Unit: unit, N: len(samples), Q1: q1, Q3: q3, Samples: samples}
}

// value records a single measured number.
func (w *wl) value(name, unit string, v float64) {
	w.run.Metrics[name] = results.Metric{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("dmlsbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		only        = fset.String("workload", "", "run only this workload: "+strings.Join(workload.Names, ", ")+" (default: all)")
		seed        = fset.Int64("seed", 1, "seed every input is generated from")
		seconds     = fset.Int("seconds", 40, "seconds of repetitions each CLI workload measures; serve-mix's closed-loop rung sends 200 requests per 8 seconds of it")
		trace       = fset.Int("trace", -1, "0: end-to-end phase only; 1: traced phase only; -1: both")
		smoke       = fset.Bool("smoke", false, "run every workload in miniature (for tests)")
		buildDir    = fset.String("build", ".bench_build", "directory for binaries, work files and results")
		resultsPath = fset.String("results", "", "results file each run is appended to (default: <build>/results.json)")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dmlsbench: %v\n", err)
		return 1
	}
	names := workload.Names
	if *only != "" {
		if !slices.Contains(workload.Names, *only) {
			return fail(fmt.Errorf("unknown -workload %q (known: %s)", *only, strings.Join(workload.Names, ", ")))
		}
		names = []string{*only}
	}
	if *trace < -1 || *trace > 1 || *seconds < 1 {
		return fail(fmt.Errorf("-trace must be -1, 0 or 1 and -seconds positive"))
	}
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	spec, err := results.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	out, err := filepath.Abs(*buildDir)
	if err != nil {
		return fail(err)
	}
	if *resultsPath == "" {
		*resultsPath = filepath.Join(out, "results.json")
	}
	b := &bench{root: root, binDir: filepath.Join(out, "bin"), conns: runtime.NumCPU()}
	if err := b.build(ctx, *trace != 0); err != nil {
		return fail(err)
	}
	size := workload.Full
	// A 200-request block of the closed-loop rung takes about 3.5 s on one
	// core, so serve-mix's gated rung fills about half the seconds and the
	// launches and the ladder (about 21 s) the rest: about as long as a CLI
	// workload at the default 40.
	size.ClosedBlocks = max(1, *seconds/8)
	if *smoke {
		size = workload.Smoke
	}
	prov := provenance(root)

	// Generate every input before anything is timed.
	inputs := map[string]workload.Inputs{}
	dirs := map[string]string{}
	for _, name := range names {
		in, err := workload.Generate(name, *seed, size)
		if err != nil {
			return fail(err)
		}
		dir := filepath.Join(out, "work", fmt.Sprintf("%s-seed%d", name, *seed))
		if err := writeInputs(dir, in); err != nil {
			return fail(err)
		}
		inputs[name], dirs[name] = in, dir
	}
	newWL := func(name string, traced bool) *wl {
		return &wl{in: inputs[name], dir: dirs[name], run: results.Run{
			Workload: name, Seed: *seed, Seconds: *seconds, Traced: traced, Smoke: *smoke,
			Started: time.Now().UTC(), Provenance: prov, Metrics: map[string]results.Metric{},
		}}
	}

	var runs []*wl
	if *trace != 1 {
		var clis []*wl
		for _, name := range names {
			w := newWL(name, false)
			runs = append(runs, w)
			if !w.in.IsServe() {
				clis = append(clis, w)
			}
		}
		if err := b.cliPhase(ctx, clis, time.Duration(*seconds)*time.Second); err != nil {
			return fail(err)
		}
		for _, w := range runs {
			if w.in.IsServe() {
				if err := b.servePhase(ctx, w); err != nil {
					return fail(fmt.Errorf("%s: %w", w.run.Workload, err))
				}
			}
		}
	}
	if *trace != 0 {
		for _, name := range names {
			w := newWL(name, true)
			runs = append(runs, w)
			if err := b.tracePhase(ctx, w); err != nil {
				return fail(fmt.Errorf("%s traced: %w", name, err))
			}
		}
	}

	correct := true
	var record []results.Run
	for _, w := range runs {
		w.run.Correct = w.run.Failed == 0
		for _, o := range w.run.Oracles {
			if !o.OK {
				w.run.Correct = false
				fmt.Fprintf(stderr, "dmlsbench: %s: oracle failed: %s: %s\n", w.run.Workload, o.Name, o.Detail)
			}
		}
		correct = correct && w.run.Correct
		printTable(stdout, w.run)
		record = append(record, w.run)
	}
	if err := results.Append(*resultsPath, record...); err != nil {
		return fail(err)
	}
	if len(runs) == 1 {
		want := spec.EndToEnd
		if runs[0].run.Traced {
			want = spec.PerLayer
		}
		if err := printLine(stdout, runs[0].run, want); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// build compiles the programs under test from the checkout, and the probe
// when the traced phase needs it. The go command relinks nothing whose
// inputs did not change, so repeated runs reuse the binaries.
func (b *bench) build(ctx context.Context, probe bool) error {
	if err := b.goBuild(ctx, b.root, "./cmd/dmls-plan", "./cmd/dmls-sweep", "./cmd/dmls-serve"); err != nil || !probe {
		return err
	}
	return b.goBuild(ctx, filepath.Join(b.root, "bench"), "./cmd/dmlsprobe")
}

// goBuild builds the packages of the module in dir into b.binDir.
func (b *bench) goBuild(ctx context.Context, dir string, pkgs ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", b.binDir + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", strings.Join(pkgs, " "), err, out)
	}
	return nil
}

// writeInputs recreates dir holding the workload's files and inputs.json.
func writeInputs(dir string, in workload.Inputs) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	files := map[string][]byte{"inputs.json": raw}
	for name, data := range in.Files {
		files[name] = data
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTable prints one run's metrics as "workload metric value unit n q1 q3".
func printTable(w io.Writer, r results.Run) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-16s %-34s %14.6g %-6s %4d %14.6g %14.6g\n", r.Workload, name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
}

// printLine prints the result line: the outcome and exactly the
// metrics the spec names, each checked against the unit the spec gives it.
func printLine(w io.Writer, r results.Run, want []results.SpecMetric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, sm := range want {
		m, ok := r.Metrics[sm.Name]
		if !ok {
			return fmt.Errorf("%s: BENCHMARK.json names metric %s, which this run did not measure", r.Workload, sm.Name)
		}
		if m.Unit != sm.Unit {
			return fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", r.Workload, sm.Name, m.Unit, sm.Unit)
		}
		line.Metrics[sm.Name] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// provenance fingerprints the code and the machine.
func provenance(root string) results.Provenance {
	p := results.Provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	// Only a checkout that is itself a repository has a commit to report.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	p.SourceSHA256 = sourceDigest(root)
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(raw))
	}
	return p
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories, so runs of a checkout without git history still name
// the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
