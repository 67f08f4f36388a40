// Package pgss is the public API of the PGSS-Sim reproduction: sampled
// microarchitecture simulation with Phase-Guided Small-Sample Simulation
// (Kihm, Strom & Connors, ISPASS 2007) and the baseline techniques it is
// evaluated against (SMARTS, TurboSMARTS, SimPoint, online SimPoint), on
// top of a cycle-accurate 4-wide in-order core simulator and a synthetic
// SPEC2000-like benchmark suite.
//
// # Quick start
//
//	ctx := context.Background()
//	spec, _ := pgss.Benchmark("164.gzip")
//	// One detailed pass records the truth and everything replay needs.
//	prof, _ := pgss.Record(ctx, spec, 10_000_000, pgss.DefaultCoreConfig())
//	res, st, _ := pgss.RunPGSS(ctx, pgss.NewTarget(prof), pgss.DefaultPGSSConfig(pgss.DefaultScale))
//	fmt.Printf("true %.3f est %.3f err %.2f%% with %d detailed ops (%d phases)\n",
//		res.TrueIPC, res.EstimatedIPC, res.ErrorPct(),
//		res.Costs.DetailedTotal(), st.Phases)
//
// # Engines
//
// Each PGSS engine has one context-first entry point. RunPGSS drives the
// serial engine over a Target, a recorded profile (NewTarget).
// RunPGSSParallel drives the sharded engine over a Source: a profile
// (NewSource) or a live simulation through a checkpoint library
// (NewLiveSource); its result is invariant to the concurrency setting.
// RunAdaptivePGSS runs the runtime-adaptive variant on the serial engine.
// Cancellation or deadline expiry stops any of them between windows with
// an ErrBudgetExceeded-classed error carrying the partial statistics.
//
// All window parameters (sampling periods, interval sizes, the spread
// rule) are the paper's values divided by a scale factor; DefaultScale=10
// corresponds to benchmarks one tenth of SPEC2000 reference length. Sample
// and warm-up sizes (1k/3k ops) are absolute, as in the paper.
package pgss

import (
	"context"
	"math"

	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/checkpoint"
	"pgss/internal/cmp"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
	"pgss/internal/trace"
	"pgss/internal/workload"
)

// Error taxonomy. Every failure the library returns is classified under
// one of these sentinels; test with errors.Is, or use ErrorKind for a
// stable string label. Configuration types re-exported below additionally
// carry a Validate() method returning ErrInvalidConfig-classed errors,
// and every Run* entry point validates its configuration up front.
var (
	// ErrInvalidConfig marks configurations rejected by Validate.
	ErrInvalidConfig = pgsserrors.ErrInvalidConfig
	// ErrMisalignedWindow marks window requests not aligned to the
	// profile's recording granularities.
	ErrMisalignedWindow = pgsserrors.ErrMisalignedWindow
	// ErrBudgetExceeded marks runs stopped by a context deadline or
	// cancellation (op/time budgets).
	ErrBudgetExceeded = pgsserrors.ErrBudgetExceeded
	// ErrCacheCorrupt marks unreadable or inconsistent on-disk profiles.
	ErrCacheCorrupt = pgsserrors.ErrCacheCorrupt
	// ErrRunPanicked marks campaign runs that panicked and were recovered.
	ErrRunPanicked = pgsserrors.ErrRunPanicked
	// ErrInterrupted marks campaign runs cancelled before completion.
	ErrInterrupted = pgsserrors.ErrInterrupted
)

// ErrorKind returns the taxonomy class of err ("invalid-config",
// "misaligned-window", "budget-exceeded", "cache-corrupt", "run-panicked",
// "interrupted", "other", or "" for nil).
func ErrorKind(err error) string { return pgsserrors.Kind(err) }

// DefaultScale is the standard parameter scale divisor relative to the
// paper's SPEC-scale values.
const DefaultScale uint64 = 10

// Re-exported types. Aliases keep the full method sets usable from outside
// the module while the implementation lives in internal packages.
type (
	// Program is an executable image for the simulated machine.
	Program = program.Program
	// WorkloadSpec describes a synthetic benchmark.
	WorkloadSpec = workload.Spec
	// KernelSpec describes one kernel of a benchmark.
	KernelSpec = workload.KernelSpec
	// Segment is one schedule entry of a benchmark.
	Segment = workload.Segment
	// Profile is a recorded detailed run that sampling techniques replay.
	Profile = profile.Profile
	// Result is the outcome of one estimation run.
	Result = sampling.Result
	// Costs tallies simulated ops by execution mode.
	Costs = sampling.Costs
	// Target is an execution a sequential sampling controller drives.
	Target = sampling.Target
	// PGSSConfig parameterises PGSS-Sim.
	PGSSConfig = core.Config
	// PGSSStats carries PGSS-specific diagnostics.
	PGSSStats = core.Stats
	// SMARTSConfig parameterises SMARTS.
	SMARTSConfig = sampling.SMARTSConfig
	// TurboSMARTSConfig parameterises TurboSMARTS.
	TurboSMARTSConfig = sampling.TurboSMARTSConfig
	// SimPointConfig parameterises offline SimPoint.
	SimPointConfig = sampling.SimPointConfig
	// OnlineSimPointConfig parameterises the online SimPoint baseline.
	OnlineSimPointConfig = sampling.OnlineSimPointConfig
	// CoreConfig sizes the simulated processor.
	CoreConfig = cpu.CoreConfig
)

// Kernel kinds for custom WorkloadSpec definitions.
const (
	// KernelStream sweeps an array with a fixed stride.
	KernelStream = workload.Stream
	// KernelPointer chases a random permutation (serialised loads).
	KernelPointer = workload.Pointer
	// KernelCompute runs register-only arithmetic chains.
	KernelCompute = workload.Compute
	// KernelBranchy branches on pseudo-random data.
	KernelBranchy = workload.Branchy
)

// Benchmarks returns the names of the built-in synthetic benchmarks.
func Benchmarks() []string { return workload.Names() }

// Benchmark returns the spec of a built-in benchmark.
func Benchmark(name string) (*WorkloadSpec, error) { return workload.Get(name) }

// DefaultCoreConfig is the paper's evaluation machine: 4-wide in-order,
// split 4-way 64 KB L1 I/D, unified 1 MB L2, gshare prediction.
func DefaultCoreConfig() CoreConfig { return cpu.DefaultCoreConfig() }

// Record builds the benchmark at the given length (0 = its default) and
// runs one full detailed simulation on the processor cc, returning the
// recorded profile. The profile holds the ground-truth IPC and everything
// the sampling techniques need for replay. Cancellation or deadline expiry
// stops the detailed pass with an ErrBudgetExceeded-classed error.
func Record(ctx context.Context, spec *WorkloadSpec, totalOps uint64, cc CoreConfig) (*Profile, error) {
	prog, err := spec.Build(totalOps)
	if err != nil {
		return nil, err
	}
	return RecordProgram(ctx, prog, cc)
}

// RecordProgram is Record for an arbitrary program.
func RecordProgram(ctx context.Context, prog *Program, cc CoreConfig) (*Profile, error) {
	c, err := newCore(prog, cc)
	if err != nil {
		return nil, err
	}
	return profile.RecordContext(ctx, c, defaultHash(), profile.DefaultConfig())
}

// newCore builds a fresh core running prog on the processor cc.
func newCore(prog *Program, cc CoreConfig) (*cpu.Core, error) {
	m, err := cpu.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, cc)
}

// defaultHashSeed fixes the BBV and MAV hash bit selections across the
// library.
const defaultHashSeed = 42

func defaultHash() *bbv.Hash { return bbv.MustNewHash(bbv.DefaultHashBits, defaultHashSeed) }

func defaultMAVHash() *bbv.Hash { return bbv.MustNewMAVHash(bbv.DefaultMAVBits, defaultHashSeed) }

// NewTarget wraps a profile as a replay target for the sequential
// controllers (PGSS, SMARTS, Full).
func NewTarget(p *Profile) Target { return sampling.NewProfileTarget(p) }

// DefaultPGSSConfig returns the paper's best overall PGSS configuration
// (1M-op BBV period, .05π threshold) at the given scale.
func DefaultPGSSConfig(scale uint64) PGSSConfig { return core.DefaultConfig(scale) }

// RunPGSS runs Phase-Guided Small-Sample Simulation over a target on the
// serial engine.
func RunPGSS(ctx context.Context, t Target, cfg PGSSConfig) (Result, PGSSStats, error) {
	return core.RunContext(ctx, t, cfg)
}

type (
	// Source is an execution the parallel engine can shard: window
	// signatures are computable for any range independently and detailed
	// samples executable at any position.
	Source = parallel.Source
	// ParallelOptions sets the parallel engine's concurrency: Shards
	// concurrent fast-forward shards and SampleWorkers concurrent detailed
	// sample executors (each ≤ 0 defaults to GOMAXPROCS).
	ParallelOptions = parallel.Options
)

// NewSource wraps a profile as a parallel-engine source. PGSS over it is
// bit-identical to RunPGSS over NewTarget of the same profile.
func NewSource(p *Profile) Source { return parallel.NewProfileSource(p) }

// NewLiveSource drives fresh simulations of prog through a checkpoint
// library recorded from it on the processor cc: shards fast-forward
// architecture-only from their nearest checkpoint, and samples warm forward
// from theirs (no distance at all when the library's stride divides the FF
// period) and execute detailed simulation on a pool of cores. totalOps
// is the recorded program length the library covers; trueIPC may be zero
// when unknown. The source tracks both signature channels, so any
// PGSSConfig.Channel works live.
func NewLiveSource(lib *CheckpointLibrary, prog *Program, cc CoreConfig, totalOps uint64, trueIPC float64) (Source, error) {
	src, err := parallel.NewLiveSource(lib, defaultHash(), defaultMAVHash(), prog, cc, totalOps, trueIPC)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// RunPGSSParallel runs PGSS over a source on the checkpoint-sharded
// parallel engine. The result is the same for every concurrency setting.
func RunPGSSParallel(ctx context.Context, src Source, cfg PGSSConfig, opts ParallelOptions) (Result, PGSSStats, error) {
	return parallel.Run(ctx, src, cfg, opts)
}

// DefaultSMARTSConfig returns the paper's SMARTS parameters at the given
// scale.
func DefaultSMARTSConfig(scale uint64) SMARTSConfig {
	return sampling.DefaultSMARTSConfig(scale)
}

// RunSMARTS runs SMARTS systematic sampling over a target.
func RunSMARTS(t Target, cfg SMARTSConfig) (Result, error) {
	return sampling.SMARTS(t, cfg)
}

// DefaultTurboSMARTSConfig returns the paper's TurboSMARTS setup at the
// given scale.
func DefaultTurboSMARTSConfig(scale uint64) TurboSMARTSConfig {
	return sampling.DefaultTurboSMARTSConfig(scale)
}

// RunTurboSMARTS runs TurboSMARTS random-order checkpoint sampling.
func RunTurboSMARTS(p *Profile, cfg TurboSMARTSConfig) (Result, error) {
	return sampling.TurboSMARTS(p, cfg)
}

// RunSimPoint runs offline SimPoint (k-means over interval BBVs).
func RunSimPoint(p *Profile, cfg SimPointConfig) (Result, error) {
	return sampling.SimPoint(p, cfg)
}

// SimPointSweep returns the paper's eleven SimPoint configurations.
func SimPointSweep(scale uint64) []SimPointConfig { return sampling.SimPointSweep(scale) }

// RunOnlineSimPoint runs the online SimPoint baseline.
func RunOnlineSimPoint(p *Profile, cfg OnlineSimPointConfig) (Result, error) {
	return sampling.OnlineSimPoint(p, cfg)
}

// OnlineSimPointOverall is the paper's best overall online-SimPoint
// configuration.
func OnlineSimPointOverall(scale uint64) OnlineSimPointConfig {
	return sampling.OnlineSimPointOverall(scale)
}

// StratifiedConfig parameterises the stratified-sampling baseline.
type StratifiedConfig = sampling.StratifiedConfig

// DefaultStratifiedConfig returns the Wunderlich et al. [17] stratified
// setup at the given scale.
func DefaultStratifiedConfig(scale uint64) StratifiedConfig {
	return sampling.DefaultStratifiedConfig(scale)
}

// RunStratified runs stratified small-sample simulation with oracle
// (offline) strata — the technique the paper cites as reducing SMARTS
// samples "by over forty times" when phase behaviour is known in advance.
func RunStratified(p *Profile, cfg StratifiedConfig) (Result, error) {
	return sampling.Stratified(p, cfg)
}

// RunFull runs the ground-truth full detailed simulation through the
// sampling interface; its estimate equals the profile's true IPC.
func RunFull(p *Profile) (Result, error) {
	return sampling.Full(sampling.NewProfileTarget(p), p.BBVOps)
}

// Successor techniques and signature channels (beyond the paper's
// evaluation; see DESIGN.md "Two-channel signatures").

type (
	// Channel selects the signature stream phase classification and
	// stratification run on: basic-block vectors (code addresses),
	// memory-access vectors (data addresses), or their concatenation.
	Channel = bbv.Channel
	// TwoPhaseConfig parameterises two-phase stratified sampling (2PSS).
	TwoPhaseConfig = sampling.TwoPhaseConfig
	// RankedSetConfig parameterises ranked set sampling with repeated
	// subsampling (RSS).
	RankedSetConfig = sampling.RankedSetConfig
)

// Signature channels.
const (
	// ChannelBBV classifies by basic-block vectors (the paper's channel).
	ChannelBBV = bbv.ChannelBBV
	// ChannelMAV classifies by memory-access vectors.
	ChannelMAV = bbv.ChannelMAV
	// ChannelBoth classifies by the normalised concatenation of both.
	ChannelBoth = bbv.ChannelBoth
)

// ParseChannel parses a channel name: "bbv", "mav", or "both" (aliases
// "bbv+mav", "concat").
func ParseChannel(s string) (Channel, error) { return bbv.ParseChannel(s) }

// DefaultTwoPhaseConfig returns the 2PSS setup at the given scale.
func DefaultTwoPhaseConfig(scale uint64) TwoPhaseConfig {
	return sampling.DefaultTwoPhaseConfig(scale)
}

// RunTwoPhase runs two-phase stratified sampling (2PSS) over a profile:
// phase 1 signature-classifies a random subset of intervals into strata,
// phase 2 spends the detailed budget proportionally across them.
func RunTwoPhase(p *Profile, cfg TwoPhaseConfig) (Result, error) {
	return sampling.TwoPhase(p, cfg)
}

// DefaultRankedSetConfig returns the RSS setup at the given scale.
func DefaultRankedSetConfig(scale uint64) RankedSetConfig {
	return sampling.DefaultRankedSetConfig(scale)
}

// RunRankedSet runs ranked set sampling with repeated subsampling (RSS)
// over a profile: each cycle ranks fresh random interval sets by a cheap
// signature concomitant and measures one order statistic per set.
func RunRankedSet(p *Profile, cfg RankedSetConfig) (Result, error) {
	return sampling.RankedSet(p, cfg)
}

// PGSSSweep returns the Fig 11 PGSS configuration grid at the given scale.
func PGSSSweep(scale uint64) []PGSSConfig { return core.Sweep(scale) }

// Extensions beyond the paper's evaluation (its §7 future work).

type (
	// AdaptiveConfig parameterises the runtime-adaptive PGSS variant.
	AdaptiveConfig = core.AdaptiveConfig
	// AdaptiveStats carries the adaptive controller's adjustment history.
	AdaptiveStats = core.AdaptiveStats
	// CMPConfig sizes a chip multiprocessor.
	CMPConfig = cmp.Config
	// Checkpoint is a complete simulator snapshot (live-point).
	Checkpoint = checkpoint.Checkpoint
	// CheckpointLibrary provides random access into a run via
	// checkpoints.
	CheckpointLibrary = checkpoint.Library
)

// DefaultAdaptiveConfig returns the runtime-adaptive PGSS controller at
// the given scale.
func DefaultAdaptiveConfig(scale uint64) AdaptiveConfig {
	return core.DefaultAdaptiveConfig(scale)
}

// RunAdaptivePGSS runs the runtime-adaptive PGSS variant (the paper's §7:
// parameters "automatically adjusted to each benchmark ... at runtime")
// over a target on the serial engine.
func RunAdaptivePGSS(ctx context.Context, t Target, cfg AdaptiveConfig) (Result, AdaptiveStats, error) {
	return core.RunAdaptive(ctx, t, cfg)
}

// DefaultCMPConfig replicates the paper's core around one shared L2.
func DefaultCMPConfig() CMPConfig { return cmp.DefaultConfig() }

// RecordCMP co-runs one program per core on a chip multiprocessor with a
// shared L2 and returns one interference-inclusive profile per core; run
// PGSS (or any technique) per core on those profiles.
func RecordCMP(progs []*Program, cfg CMPConfig) ([]*Profile, error) {
	machine, err := cmp.New(progs, defaultHash(), cfg)
	if err != nil {
		return nil, err
	}
	return machine.Record()
}

// RecordCheckpoints runs one functional-warming pass over the program,
// capturing a live-point checkpoint every strideOps retired ops; the
// library then provides random access into the run (see Library.Seek and
// Library.SampleAt).
func RecordCheckpoints(prog *Program, cc CoreConfig, strideOps uint64) (*CheckpointLibrary, error) {
	c, err := newCore(prog, cc)
	if err != nil {
		return nil, err
	}
	return checkpoint.Record(c, strideOps, 0)
}

// NewCheckpointWorker builds a core suitable for Library.Seek/SampleAt
// against the same program and configuration the library was recorded
// with.
func NewCheckpointWorker(prog *Program, cc CoreConfig) (*cpu.Core, error) {
	return newCore(prog, cc)
}

// PhaseTrace is one phase's cycle-close representative trace.
type PhaseTrace = trace.PhaseTrace

// Representative policies for CapturePhaseTraces.
const (
	// RepFirst uses each phase's first occurrence (Pereira et al.; subject
	// to the warming bias the paper criticises in §3).
	RepFirst = trace.RepFirst
	// RepMedian uses the median occurrence, avoiding that bias.
	RepMedian = trace.RepMedian
)

// CapturePhaseTraces analyses the program's phases online and captures one
// cycle-close trace per phase (with its cache/predictor state), the
// Pereira-style trace bundle the paper compares PGSS against.
func CapturePhaseTraces(prog *Program, cc CoreConfig, intervalOps uint64,
	thresholdPi float64, policy trace.RepPolicy) ([]PhaseTrace, error) {
	return trace.PhaseTraces(prog, cc, defaultHash(), intervalOps, thresholdPi*math.Pi, policy)
}

// EstimateIPCFromTraces replays a phase-trace bundle through a fresh
// pipeline of the given configuration and returns the weighted IPC
// estimate.
func EstimateIPCFromTraces(traces []PhaseTrace, cc CoreConfig) (float64, error) {
	return trace.EstimateIPC(traces, cc)
}

// Fault-tolerant campaign execution (see internal/campaign): batches of
// benchmark × technique × seed runs on a worker pool with per-run panic
// recovery, retries with backoff, per-run budgets and a JSONL journal for
// kill/resume.

type (
	// CampaignSpec identifies one run of a campaign.
	CampaignSpec = campaign.Spec
	// CampaignOptions configures the campaign runner.
	CampaignOptions = campaign.Options
	// CampaignOutcome is the terminal state of one campaign run.
	CampaignOutcome = campaign.Outcome
	// CampaignReport aggregates a campaign's outcomes.
	CampaignReport = campaign.Report
	// CampaignRunFunc executes one campaign run.
	CampaignRunFunc = campaign.RunFunc
)

// CampaignGrid builds the cross product of benchmarks × techniques ×
// seeds.
func CampaignGrid(benchmarks, techniques []string, seeds []int64) []CampaignSpec {
	return campaign.Grid(benchmarks, techniques, seeds)
}

// RunCampaign executes specs through fn on a worker pool with the
// campaign runner's fault tolerance. Per-run failures land in the report;
// the returned error is reserved for campaign-level failures (an unusable
// journal).
func RunCampaign(ctx context.Context, specs []CampaignSpec, fn CampaignRunFunc, opts CampaignOptions) (*CampaignReport, error) {
	return campaign.Run(ctx, specs, fn, opts)
}
