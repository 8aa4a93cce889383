// Package dmlscale models the scalability of distributed machine learning,
// reproducing Ulanov, Simanovsky and Marwah, "Modeling Scalability of
// Distributed Machine Learning" (ICDE 2017).
//
// The framework views a distributed ML algorithm as BSP supersteps whose
// time is computation plus communication, t(n) = t_cp(n) + t_cm(n), and
// measures scalability by the speedup s(n) = t(1)/t(n). Building a model
// needs only the algorithm's complexity formulas and the hardware spec — no
// profiling runs.
//
// Quick start:
//
//	w := dmlscale.Workload{
//		Name:            "my network",
//		FlopsPerExample: 6 * 12e6, // 6·W for dense nets
//		BatchSize:       60000,
//		ModelBits:       64 * 12e6,
//	}
//	model, err := dmlscale.GradientDescent(w, dmlscale.XeonE31240(), dmlscale.SparkComm())
//	n, s, err := model.OptimalWorkers(16)
//
// Every named construction — communication protocols (including composed
// ones), hardware presets, graph families, network architectures and
// workload families (strong/weak gradient descent, graph inference, MRF
// belief propagation, asynchronous gradient descent) — resolves through a
// single registry, so the same names work identically in Go code, in the
// CLIs and in JSON scenario files. ProtocolKinds, HardwarePresets,
// WorkloadFamilies and Architectures list the catalogs.
//
// Beyond single models, a JSON Suite declares many scenarios at once — an
// explicit list and/or a parameter sweep over bandwidth × protocol ×
// precision × worker range — and EvaluateSuite computes every speedup curve
// concurrently with per-curve error isolation. Suite-level workers and
// intra-curve parallelism (worker-count sampling, Monte-Carlo trial
// sharding) draw from one shared budget sized by SetParallelism (default
// GOMAXPROCS), and results are bit-identical at any setting:
//
//	suite, err := dmlscale.LoadSuite("sweep.json")
//	results, stats, err := dmlscale.EvaluateSuite(ctx, suite, 0) // 0 = whole budget
//
// The subpackages under internal implement the full system: analytic models
// (core, comm), the catalog (registry), the scenario/suite schema
// (scenario), substrates (nncost, gd, graph, partition, mrf, bp),
// discrete-event experiment simulators (cluster, sparksim, gpusim, shmsim)
// and the per-figure reproduction harness (experiments).
package dmlscale

import (
	"context"

	"dmlscale/internal/comm"
	"dmlscale/internal/core"
	"dmlscale/internal/experiments"
	"dmlscale/internal/gd"
	"dmlscale/internal/hardware"
	"dmlscale/internal/memo"
	"dmlscale/internal/planner"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
	"dmlscale/internal/units"
)

// Core modeling types.
type (
	// Model is a per-superstep time model with Speedup, SpeedupCurve and
	// OptimalWorkers methods.
	Model = core.Model
	// Curve is a sampled speedup curve.
	Curve = core.Curve
	// Point is one curve sample.
	Point = core.Point
	// Workload describes a gradient-descent workload: per-example flops,
	// batch size and communicated model bits.
	Workload = gd.Workload
	// Node is one homogeneous computing device.
	Node = hardware.Node
	// Network is the communication medium.
	Network = hardware.Network
	// CommModel maps payload and worker count to communication time.
	CommModel = comm.Model
	// Seconds is a duration in seconds.
	Seconds = units.Seconds
	// Flops is a computation rate.
	Flops = units.Flops
	// BitsPerSecond is a bandwidth.
	BitsPerSecond = units.BitsPerSecond
	// Bits is a data size.
	Bits = units.Bits
)

// Scenario and suite types: the JSON schema deployment tools emit.
type (
	// Scenario is the on-disk description of one modeling run.
	Scenario = scenario.Scenario
	// Suite declares many scenarios: a list, a sweep, or both.
	Suite = scenario.Suite
	// Sweep is a parameter grid over a base scenario.
	Sweep = scenario.Sweep
	// SuiteResult is one evaluated suite entry (curve or isolated error).
	SuiteResult = scenario.Result
	// WorkloadSpec selects a workload family and its complexity figures.
	WorkloadSpec = scenario.WorkloadSpec
	// HardwareSpec names a hardware preset or describes a custom node.
	HardwareSpec = scenario.HardwareSpec
	// ProtocolSpec selects and parameterizes a communication protocol.
	ProtocolSpec = scenario.ProtocolSpec
	// GraphSpec describes the inference graph of the graph families.
	GraphSpec = scenario.GraphSpec
	// ConvergenceSpec is the scenario block that turns per-iteration
	// curves into time-to-accuracy plans: a batch-to-iterations rule and
	// the iteration budget at one worker.
	ConvergenceSpec = scenario.ConvergenceSpec
)

// Planner types: the decision-making layer on top of evaluation.
type (
	// Plan is the planner's answer for one scenario: the optimal worker
	// count, its predicted time(-to-accuracy), iterations and cost, the
	// full curve, and frontier membership. Plans of one report may share
	// a curve's backing array, so Plan.Curve is read-only.
	Plan = planner.Plan
	// PlanPoint is one sampled configuration of a plan.
	PlanPoint = planner.Point
	// PlanReport is a ranked set of plans for one suite.
	PlanReport = planner.Report
	// PlanObjective selects how a report ranks its plans: "tta", "cost"
	// or "pareto".
	PlanObjective = planner.Objective
	// PlanOptions selects the planner's adaptive behaviors — bound-based
	// pruning, frontier refinement, cost/time budgets; the zero value is
	// the exhaustive pass.
	PlanOptions = planner.Options
)

// GradientDescent builds the paper's strong-scaling gradient-descent model
// t(n) = C·S/(F·n) + t_cm(W bits, n) on the given hardware and protocol.
func GradientDescent(w Workload, node Node, protocol CommModel) (Model, error) {
	return gd.Model(w, node, protocol)
}

// GradientDescentWeak builds the paper's weak-scaling model (per-instance
// time with a fixed per-worker batch), the Fig. 3 setting.
func GradientDescentWeak(w Workload, node Node, protocol CommModel) (Model, error) {
	return gd.WeakScalingModel(w, node, protocol)
}

// GraphInference builds the paper's graphical-model inference model
// (§IV-B): computation proportional to the Monte-Carlo estimate of the
// maximum per-worker edge count for the given degree sequence, with zero
// communication (shared memory). opsPerEdge is c(S), e.g. bp.OpsPerEdge.
// Degenerate inputs (empty degrees, non-positive ops, flops or trials)
// return an error instead of silently producing infinite speedups. The
// per-worker-count estimates come from the process-wide kernel cache
// (SnapshotCaches shows it), so identical estimates are computed exactly
// once across all model instances and concurrent suite workers; calling
// Time with a worker count below 1 panics with the estimator's error
// rather than pricing the point at +Inf. The degrees slice is keyed into
// that cache by its contents at construction time and read again at each
// evaluation, so it must not be mutated after this call.
func GraphInference(name string, degrees []int32, opsPerEdge float64, f Flops, trials int, seed int64) (Model, error) {
	return registry.GraphInferenceModelCtx(context.Background(), name, degrees, opsPerEdge, f, trials, seed)
}

// Hardware catalog (the paper's testbeds).

// XeonE31240 is the Spark-cluster CPU (§V-A).
func XeonE31240() Node { return hardware.XeonE31240() }

// NvidiaK40 is the GPU of the Chen et al. cluster (§V-A).
func NvidiaK40() Node { return hardware.NvidiaK40() }

// GigabitEthernet is the 1 Gbit/s cluster network.
func GigabitEthernet() Network { return hardware.GigabitEthernet() }

// Communication protocols.

// LinearComm is the master-worker sequential exchange: t = n·payload/B.
func LinearComm(b BitsPerSecond) CommModel { return comm.Linear{Bandwidth: b} }

// TreeComm is a binomial-tree broadcast/reduction: t = log2(n)·payload/B.
func TreeComm(b BitsPerSecond) CommModel { return comm.Tree{Bandwidth: b} }

// TwoStageTreeComm is the paper's generic gradient-descent communication:
// 2·log2(n)·payload/B.
func TwoStageTreeComm(b BitsPerSecond) CommModel { return comm.TwoStageTree{Bandwidth: b} }

// SparkComm is Spark's torrent broadcast plus two-wave sqrt aggregation
// over 1 Gbit/s Ethernet, the Fig. 2 protocol.
func SparkComm() CommModel { return comm.SparkGradient(units.Gbps) }

// SparkCommOn is SparkComm at a custom bandwidth.
func SparkCommOn(b BitsPerSecond) CommModel { return comm.SparkGradient(b) }

// RingAllReduceComm is the bandwidth-optimal ring all-reduce.
func RingAllReduceComm(b BitsPerSecond) CommModel { return comm.RingAllReduce{Bandwidth: b} }

// PipelinedTreeComm is a chunked, pipelined tree broadcast that approaches
// a single payload transfer as chunks grow.
func PipelinedTreeComm(b BitsPerSecond, chunks int) CommModel {
	return comm.PipelinedTree{Bandwidth: b, Chunks: chunks}
}

// SharedMemoryComm models free in-machine communication.
func SharedMemoryComm() CommModel { return comm.SharedMemory{} }

// Protocol builds a cataloged or composed protocol by name — the registry
// path scenario files use. kind is one of ProtocolKinds.
func Protocol(kind string, b BitsPerSecond) (CommModel, error) {
	return registry.Protocol(registry.ProtocolSpec{Kind: kind, BandwidthBitsPerSec: float64(b)})
}

// Registry catalogs: the names scenario files, CLIs and Protocol accept.

// ProtocolKinds lists the registered protocol kinds.
func ProtocolKinds() []string { return registry.ProtocolKinds() }

// HardwarePresets lists the cataloged hardware node names.
func HardwarePresets() []string { return registry.NodePresets() }

// WorkloadFamilies lists the canonical workload-family names.
func WorkloadFamilies() []string { return registry.Families() }

// Architectures lists the cataloged network architectures.
func Architectures() []string { return registry.Architectures() }

// GraphFamilies lists the synthetic graph families.
func GraphFamilies() []string { return registry.GraphFamilies() }

// Scenarios and suites.

// LoadScenario reads a single-scenario JSON file.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// LoadSuite reads a suite (or single-scenario) JSON file.
func LoadSuite(path string) (Suite, error) { return scenario.LoadSuite(path) }

// EvaluateSuite computes every speedup curve of a suite concurrently, with
// the pass's evaluation stats. Workers come from the shared parallelism
// budget (default GOMAXPROCS; size it with SetParallelism), which
// suite-level curve workers and intra-curve Monte-Carlo shards split between
// them; the parallelism argument only caps the suite-level workers within
// that budget (≤ 0 means no extra cap — it cannot raise concurrency above
// the budget). A failing scenario yields a SuiteResult with Err set; the
// rest of the suite still evaluates. Every cell evaluates its own model, and
// Monte-Carlo kernel estimates are cached process-wide, so a grid that
// varies only communication-side axes pays for each distinct computation
// kernel exactly once; results are bit-identical with the caches cold or
// warm. Pair the stats with SnapshotCaches to see the kernel-cache hit
// ratio.
//
// Cancelling ctx stops new model work promptly — including Monte-Carlo
// kernels mid-estimate — and yields deterministic partial results, one
// SuiteResult per cell: cells evaluated before ctx fired are bit-identical
// to an uncancelled run's, the rest carry an error wrapping ctx.Err()
// (counted in EvalStats.Cancelled), and the returned error is ctx's own. No
// goroutines or parallelism-budget slots outlive the call.
func EvaluateSuite(ctx context.Context, s Suite, parallelism int) ([]SuiteResult, EvalStats, error) {
	return scenario.EvaluateSuiteStatsCtx(ctx, s, parallelism)
}

// PlanSuite plans every scenario of a suite concurrently: each cell's
// per-iteration model composes with its convergence block into a
// time-to-accuracy curve, the planner finds the optimal worker count, prices
// the run with the node's hourly cost rate, marks the suite's cost×time
// Pareto frontier and ranks the cells by the objective ("" defers to the
// suite's own objective field, else "tta"). Scenarios without a convergence
// block degrade to per-iteration ranking with a notice; failures isolate
// per cell. Output is deterministic at any parallelism.
//
// The zero PlanOptions is the exhaustive pass. Its adaptive options add
// bound-based pruning against an incremental Pareto frontier (the evaluated
// frontier is provably identical to the exhaustive run's), multi-axis
// refinement of the numeric sweep axes next to frontier cells, and cost/time
// budget constraints. Cancelling ctx keeps every plan made before it fired
// bit-identical to an uncancelled run's; the rest carry an error wrapping
// ctx.Err() (EvalStats.Cancelled), and the returned error is ctx's own.
func PlanSuite(ctx context.Context, s Suite, objective PlanObjective, parallelism int, opts PlanOptions) (PlanReport, EvalStats, error) {
	return planner.PlanSuiteCtx(ctx, s, objective, parallelism, opts)
}

// PlanScenario plans a single scenario; see PlanSuite.
func PlanScenario(s Scenario) (Plan, error) { return planner.PlanScenario(s) }

// ConvergenceRules lists the cataloged batch-to-iterations rule names a
// convergence block may name.
func ConvergenceRules() []string { return registry.ConvergenceRules() }

// PlanObjectives lists the ranking objectives a suite or PlanSuite call may
// name.
func PlanObjectives() []string { return scenario.Objectives() }

// Cache observability: the process-wide caches behind model construction.
type (
	// MemoStats is one cache's hit/miss/eviction/entry counters.
	MemoStats = memo.Stats
	// CacheStats snapshots every process-wide registry cache: generated
	// degree sequences and Monte-Carlo maxᵢEᵢ kernel estimates.
	CacheStats = registry.CacheStats
	// EvalStats summarizes one EvaluateSuite or PlanSuite pass: cells
	// evaluated versus failed, cancelled or pruned, and where the wall
	// time went.
	EvalStats = scenario.EvalStats
)

// SnapshotCaches returns the current counters of the process-wide caches.
// The Estimates layer is the computation kernel: its misses count the
// Monte-Carlo estimations actually performed since the last ResetCaches.
func SnapshotCaches() CacheStats { return registry.SnapshotCaches() }

// ResetCaches empties every process-wide cache (degree sequences and
// Monte-Carlo estimates) and zeroes its counters, so benchmarks and tests
// measure a fully cold state. Evaluation never needs it.
func ResetCaches() { registry.ResetCaches() }

// SetParallelism sizes the shared parallelism budget that suite-level curve
// workers and intra-curve Monte-Carlo shards draw from (≤ 0 means
// GOMAXPROCS). Evaluation is deterministic at any setting; call it before
// evaluating, not concurrently with it.
func SetParallelism(limit int) { core.SetParallelism(limit) }

// Parallelism returns the shared budget's total worker limit.
func Parallelism() int { return core.Parallelism() }

// Workers is a convenience for the worker counts lo..hi.
func Workers(lo, hi int) []int { return core.Range(lo, hi) }

// Experiments exposes the paper-reproduction harness.

// ExperimentIDs lists the reproducible paper artifacts.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string) (experiments.Result, error) {
	return experiments.Run(id, experiments.DefaultOptions())
}
