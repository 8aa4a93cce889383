// Package cli is the run harness dmls-sweep and dmls-plan share. It owns
// what the two verbs have in common: the shared flags, loading the suite,
// the -parallel budget and -retries policy, opening and closing the
// -checkpoint journal, recording and flushing a -trace, and the interrupt
// and exit-code policy. A command adds only its own flags, its one
// evaluation call and its renderer.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmlscale/internal/core"
	"dmlscale/internal/obs"
	"dmlscale/internal/registry"
	"dmlscale/internal/resilience"
	"dmlscale/internal/resume"
	"dmlscale/internal/scenario"
)

// Entry is a command's in-process entry point: flags in, exit code out.
type Entry func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// Main runs run as the process: SIGINT and SIGTERM cancel its context, and
// its result is the exit code.
func Main(run Entry) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Command describes a verb to the harness.
type Command struct {
	// Name prefixes every diagnostic, e.g. "dmls-sweep".
	Name string
	// Usage words the shared flags whose help text is verb-specific.
	Usage Usage
	// Example is the -emit-example payload.
	Example func() scenario.Suite
	// Stats renders the -stats block.
	Stats func(st scenario.EvalStats, caches registry.CacheStats, elapsed time.Duration) string
	// JournalsCells reports whether the verb replays finished cells from
	// the -checkpoint journal, not only Monte-Carlo kernel estimates.
	JournalsCells bool
	// Done is the word the interrupt notice counts finished cells with,
	// e.g. "evaluated".
	Done string
}

// Usage is the help text of the shared flags each verb words its own way.
type Usage struct {
	Parallel, Stats, Trace, EmitExample, Checkpoint, Resume string
}

// Verb is a command's own part of a run.
type Verb interface {
	// Evaluate runs the verb's one evaluation call. cp is the open
	// -checkpoint journal, or nil. A verb that journals only kernel
	// estimates may ignore it: opening the journal installed its kernel
	// hook already.
	Evaluate(ctx context.Context, s scenario.Suite, cp scenario.Checkpoint) (scenario.EvalStats, error)
	// Render writes what Evaluate produced in the -format given: table,
	// csv or json.
	Render(w io.Writer, format string) error
	// Failed counts the cells that carry their own error, out of total.
	Failed() (failed, total int)
}

// Harness is one command invocation: the shared flags, parsed into one
// FlagSet the verb adds its own flags to, and the output streams.
type Harness struct {
	cmd            Command
	stdout, stderr io.Writer
	// Flags holds the shared flags; register the verb's own on it before
	// Parse.
	Flags *flag.FlagSet

	suitePath, format, tracePath, ckptPath *string
	parallel, retries                      *int
	stats, emitExample, keepGoing, resume  *bool
}

// New registers the shared flags for cmd.
func New(cmd Command, stdout, stderr io.Writer) *Harness {
	fs := flag.NewFlagSet(cmd.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Harness{
		cmd: cmd, stdout: stdout, stderr: stderr, Flags: fs,
		suitePath:   fs.String("suite", "", "JSON suite (or single-scenario) file"),
		parallel:    fs.Int("parallel", 0, cmd.Usage.Parallel),
		format:      fs.String("format", "table", "output format: table, csv or json"),
		stats:       fs.Bool("stats", false, cmd.Usage.Stats),
		tracePath:   fs.String("trace", "", cmd.Usage.Trace),
		emitExample: fs.Bool("emit-example", false, cmd.Usage.EmitExample),
		keepGoing:   fs.Bool("keep-going", false, "exit 0 even when some scenarios fail (a fully failed suite still exits 1)"),
		ckptPath:    fs.String("checkpoint", "", cmd.Usage.Checkpoint),
		resume:      fs.Bool("resume", false, cmd.Usage.Resume),
		retries:     fs.Int("retries", -1, "max retries of each kernel computation after a transient fault; 0 disables retry, -1 keeps the default (2)"),
	}
}

// Parse parses args and settles what needs no suite: bad flags (exit 2),
// -emit-example, a missing -suite and an unknown -format. done reports that
// the invocation is over, with exit code code.
func (h *Harness) Parse(args []string) (code int, done bool) {
	if err := h.Flags.Parse(args); err != nil {
		return 2, true
	}
	if *h.emitExample {
		if err := h.cmd.Example().Encode(h.stdout); err != nil {
			return h.Fail(err), true
		}
		return 0, true
	}
	if *h.suitePath == "" {
		return h.Fail(fmt.Errorf("missing -suite (or -emit-example)")), true
	}
	if f := *h.format; f != "table" && f != "csv" && f != "json" {
		return h.Fail(fmt.Errorf("unknown -format %q (table, csv, json)", f)), true
	}
	return 0, false
}

// Fail reports err on stderr and returns exit code 1.
func (h *Harness) Fail(err error) int {
	fmt.Fprintf(h.stderr, "%s: %v\n", h.cmd.Name, err)
	return 1
}

// Run loads the suite, evaluates it through v, renders the outcome and
// returns the exit code: 0 for a clean run; 1 when the suite, the journal
// or the trace fails, or when any cell failed — unless -keep-going, which
// tolerates partial failure but never a fully failed suite; 130 when ctx
// was cancelled, after rendering the partial results and flushing -stats.
func (h *Harness) Run(ctx context.Context, v Verb) int {
	suite, err := scenario.LoadSuite(*h.suitePath)
	if err != nil {
		return h.Fail(err)
	}
	if *h.parallel > 0 {
		core.SetParallelism(*h.parallel)
	}
	applyRetries(*h.retries)
	if *h.resume && *h.ckptPath == "" {
		return h.Fail(fmt.Errorf("-resume needs -checkpoint"))
	}
	var (
		journal *resume.Run
		cp      scenario.Checkpoint
	)
	if *h.ckptPath != "" {
		cs, err := suite.Cells()
		if err != nil {
			return h.Fail(err)
		}
		journal, err = resume.Open(*h.ckptPath, suite.Name, cs.Len(), *h.resume)
		if err != nil {
			return h.Fail(err)
		}
		cp = journal
		if journal.Resumed {
			h.reportResumed(journal)
		}
	}
	var traceBuf *obs.TraceBuffer
	if *h.tracePath != "" {
		traceBuf = obs.NewTraceBuffer(0)
		obs.SetRecorder(traceBuf)
		defer obs.SetRecorder(nil)
	}
	start := time.Now()
	st, err := v.Evaluate(ctx, suite, cp)
	interrupted := resilience.IsCancelled(err)
	var ckptErr error
	if journal != nil {
		// Close before rendering: the journal must be durable even if the
		// render path fails, and an append failure must not exit 0.
		ckptErr = journal.Close()
	}
	if err != nil && !interrupted {
		return h.Fail(err)
	}
	elapsed := time.Since(start)
	if traceBuf != nil {
		obs.SetRecorder(nil)
		if err := writeTrace(*h.tracePath, traceBuf); err != nil {
			return h.Fail(err)
		}
		fmt.Fprintf(h.stderr, "%s: wrote %d spans to %s\n", h.cmd.Name, traceBuf.Ended(), *h.tracePath)
	}
	if err := v.Render(h.stdout, *h.format); err != nil {
		return h.Fail(err)
	}
	if *h.stats {
		fmt.Fprint(h.stderr, h.cmd.Stats(st, registry.SnapshotCaches(), elapsed))
	}
	if ckptErr != nil {
		fmt.Fprintf(h.stderr, "%s: checkpoint: %v\n", h.cmd.Name, ckptErr)
	}
	if interrupted {
		// Sweeps never prune and plans never dedup curves, so one sum
		// counts the finished cells of either verb.
		fmt.Fprintf(h.stderr, "%s: interrupted; partial results above (%d of %d cells %s)\n",
			h.cmd.Name, st.Evaluated+st.CurvesDeduped+st.Pruned, st.Scenarios, h.cmd.Done)
		if *h.ckptPath != "" {
			fmt.Fprintf(h.stderr, "%s: resume with: -suite %s -checkpoint %s -resume\n", h.cmd.Name, *h.suitePath, *h.ckptPath)
		}
		return 130
	}
	if ckptErr != nil {
		return 1
	}
	failed, total := v.Failed()
	return h.exitCode(failed, total)
}

// reportResumed tells the user what a replayed journal saved.
func (h *Harness) reportResumed(j *resume.Run) {
	if h.cmd.JournalsCells {
		fmt.Fprintf(h.stderr, "%s: resuming from %s: %d cells and %d kernel estimates replayed\n",
			h.cmd.Name, *h.ckptPath, j.CellsReplayed, j.KernelReplayed)
		return
	}
	fmt.Fprintf(h.stderr, "%s: resuming from %s: %d kernel estimates replayed\n",
		h.cmd.Name, *h.ckptPath, j.KernelReplayed)
}

// exitCode turns the failure count into the process exit code: 0 for a
// clean run, 1 when anything failed — unless -keep-going, which tolerates
// partial failure (warned on stderr) but never a fully failed suite.
func (h *Harness) exitCode(failed, total int) int {
	if failed == 0 {
		return 0
	}
	if failed == total {
		fmt.Fprintf(h.stderr, "%s: all %d scenarios failed\n", h.cmd.Name, failed)
		return 1
	}
	fmt.Fprintf(h.stderr, "%s: %d of %d scenarios failed (see results)\n", h.cmd.Name, failed, total)
	if *h.keepGoing {
		return 0
	}
	return 1
}

// applyRetries overrides the process-wide retry policy's attempt count:
// -retries N allows N retries after the first attempt, 0 disables retrying
// entirely, and a negative value keeps the built-in default.
func applyRetries(retries int) {
	if retries < 0 {
		return
	}
	resilience.SetDefault(resilience.Policy{MaxAttempts: retries + 1})
}

// writeTrace flushes the recorded spans as a Chrome/Perfetto trace file.
func writeTrace(path string, buf *obs.TraceBuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := buf.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// SlowestCells renders the top-k slowest cells as one -stats line, or
// nothing when no cell recorded a timing. A cell whose time splits into
// build and sample shows the split.
func SlowestCells(cells []scenario.CellTiming) string {
	if len(cells) == 0 {
		return ""
	}
	out := "stats: slowest cells:"
	for i, ct := range cells {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(" %s %v", ct.Name, ct.Total.Round(time.Microsecond))
		if ct.Build > 0 || ct.Sample > 0 {
			out += fmt.Sprintf(" (build %v + sample %v)",
				ct.Build.Round(time.Microsecond), ct.Sample.Round(time.Microsecond))
		}
	}
	return out + "\n"
}
