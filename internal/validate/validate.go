package validate

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"

	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
)

// hashSeed mirrors the facade's fixed BBV hash bit selection.
const hashSeed = 42

// DefaultLayouts are the shard layouts every case's parallel runs are
// checked under; the serial controller is the reference for all of them.
func DefaultLayouts() []parallel.Options {
	return []parallel.Options{
		{Shards: 1, SampleWorkers: 1},
		{Shards: 4, SampleWorkers: 4},
		{Shards: 3, SampleWorkers: 2},
		{Shards: 7, SampleWorkers: 3},
	}
}

// Options configures a validation run.
type Options struct {
	// Cases is the number of generated cases; case i uses seed Seed+i.
	Cases int
	// Seed is the base seed.
	Seed int64
	// Layouts are the parallel shard layouts to check (default
	// DefaultLayouts; at least one is required).
	Layouts []parallel.Options
	// LiveEvery runs the live-source (checkpoint-restored) checks, against
	// replay and across layouts, on every n-th case (0 disables, 1 = every
	// case). Live checks re-simulate the program several times and
	// dominate a case's cost.
	LiveEvery int
	// MaxMeanErrPct bounds the mean |IPC error| vs the oracle across all
	// cases (the aggregate statistical invariant).
	MaxMeanErrPct float64
	// MaxCaseErrPct bounds any single case's |IPC error| (a wild-divergence
	// tripwire, deliberately loose: individual short runs may sit outside
	// the per-phase confidence bound).
	MaxCaseErrPct float64
	// Jobs is the campaign worker-pool width (0 = GOMAXPROCS).
	Jobs int
	// JournalPath/Resume journal case outcomes for kill/resume, exactly as
	// simulation campaigns do ("" = no journal).
	JournalPath string
	Resume      bool
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultOptions returns the standard validation setup: 200 cases at base
// seed 1, all default layouts, live check every 8th case, mean error bound
// at twice the configured eps (the generator fixes Eps=3%) and a 35%
// single-case tripwire.
func DefaultOptions() Options {
	return Options{
		Cases:         200,
		Seed:          1,
		Layouts:       DefaultLayouts(),
		LiveEvery:     8,
		MaxMeanErrPct: 6.0,
		MaxCaseErrPct: 35.0,
	}
}

// buildCore constructs a fresh simulator core for prog with the default
// (paper) machine configuration.
func buildCore(prog *program.Program) (*cpu.Core, error) {
	m, err := cpu.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, cpu.DefaultCoreConfig())
}

// RunCase executes one case through every engine and returns its result.
// The returned error marks infrastructure failures (the case could not be
// built or simulated at all); invariant violations land in the result.
func RunCase(ctx context.Context, cs *Case, layouts []parallel.Options, live bool) (CaseResult, error) {
	cr := CaseResult{Seed: cs.Seed, Benchmark: cs.Spec.Name, Config: cs.Config.String()}
	if len(layouts) == 0 {
		layouts = DefaultLayouts()
	}

	prog, err := cs.Spec.Build(cs.TotalOps)
	if err != nil {
		return cr, fmt.Errorf("validate: case %d: build: %w", cs.Seed, err)
	}
	oracleCore, err := buildCore(prog)
	if err != nil {
		return cr, fmt.Errorf("validate: case %d: core: %w", cs.Seed, err)
	}
	hash, err := bbv.NewHash(bbv.DefaultHashBits, hashSeed)
	if err != nil {
		return cr, err
	}

	// Oracle: one full detailed pass. Its whole-program IPC is the truth
	// every engine's estimate is scored against, and its recorded profile
	// is what the replay engines consume.
	p, err := profile.RecordContext(ctx, oracleCore, hash, profile.DefaultConfig())
	if err != nil {
		return cr, fmt.Errorf("validate: case %d: oracle record: %w", cs.Seed, err)
	}
	if err := p.CheckIntegrity(); err != nil {
		cr.violate("oracle-integrity", "recorded oracle profile fails its own integrity check: %v", err)
		return cr, nil
	}
	cr.TotalOps = p.TotalOps
	cr.TrueIPC = p.TrueIPC()

	// Successor-technique cases validate the replay estimators: run-twice
	// determinism and the cost-ledger invariants, plus the shared aggregate
	// error bound. The engine differential battery below is PGSS-specific.
	if cs.Technique == "2PSS" || cs.Technique == "RSS" {
		checkTechnique(&cr, p, cs)
		return cr, nil
	}

	// Serial reference run, plus a second run for seed determinism.
	serRes, serSt, err := core.RunContext(ctx, sampling.NewProfileTarget(p), cs.Config)
	if err != nil {
		return cr, fmt.Errorf("validate: case %d: serial run: %w", cs.Seed, err)
	}
	cr.EstimatedIPC = serRes.EstimatedIPC
	cr.ErrPct = serRes.ErrorPct()
	cr.Samples = serSt.SamplesTaken
	cr.Phases = serSt.Phases

	serRes2, serSt2, err := core.RunContext(ctx, sampling.NewProfileTarget(p), cs.Config)
	if err != nil {
		return cr, fmt.Errorf("validate: case %d: serial rerun: %w", cs.Seed, err)
	}
	if !reflect.DeepEqual(serRes, serRes2) || !reflect.DeepEqual(serSt, serSt2) {
		cr.violate("seed-determinism", "two serial runs of the same case diverged: %+v vs %+v", serRes, serRes2)
	}

	checkAccounting(&cr, p, cs.Config, serRes, serSt)

	// Serial ≡ parallel across every shard layout.
	for _, opts := range layouts {
		res, st, err := parallel.Run(ctx, parallel.NewProfileSource(p), cs.Config, opts)
		if err != nil {
			return cr, fmt.Errorf("validate: case %d: parallel %dx%d: %w", cs.Seed, opts.Shards, opts.SampleWorkers, err)
		}
		if !reflect.DeepEqual(res, serRes) {
			cr.violate("serial-parallel-result", "shards=%d workers=%d Result diverged from serial:\n got %+v\nwant %+v",
				opts.Shards, opts.SampleWorkers, res, serRes)
		}
		if !reflect.DeepEqual(st, serSt) {
			cr.violate("serial-parallel-stats", "shards=%d workers=%d Stats diverged from serial:\n got %+v\nwant %+v",
				opts.Shards, opts.SampleWorkers, st, serSt)
		}
	}

	if live {
		if err := checkLive(ctx, &cr, prog, p, hash, cs.Config, layouts, serRes); err != nil {
			return cr, err
		}
		cr.LiveChecked = true
	}
	return cr, nil
}

// checkTechnique validates one 2PSS or RSS case over its oracle profile:
// two runs must be bit-identical, the cost ledger must tie out (every
// detailed sample charged exactly WarmOps+SampleOps, classification charged
// in whole intervals, never more than one whole-program pass), and the
// estimate must be positive and finite. The case's error feeds the same
// aggregate bound as the PGSS cases.
func checkTechnique(cr *CaseResult, p *profile.Profile, cs *Case) {
	var cfgStr string
	var intervalOps, warmOps, sampleOps uint64
	run := func() (sampling.Result, error) {
		if cs.Technique == "2PSS" {
			return sampling.TwoPhase(p, cs.TwoPhase)
		}
		return sampling.RankedSet(p, cs.RankedSet)
	}
	if cs.Technique == "2PSS" {
		cfgStr = cs.TwoPhase.String()
		intervalOps, warmOps, sampleOps = cs.TwoPhase.IntervalOps, cs.TwoPhase.WarmOps, cs.TwoPhase.SampleOps
	} else {
		cfgStr = cs.RankedSet.String()
		intervalOps, warmOps, sampleOps = cs.RankedSet.IntervalOps, cs.RankedSet.WarmOps, cs.RankedSet.SampleOps
	}
	cr.Config = cs.Technique + " " + cfgStr

	res, err := run()
	if err != nil {
		cr.violate("technique-run", "%s run failed: %v", cs.Technique, err)
		return
	}
	res2, err := run()
	if err != nil {
		cr.violate("seed-determinism", "second %s run failed after a clean first: %v", cs.Technique, err)
		return
	}
	if !reflect.DeepEqual(res, res2) {
		cr.violate("seed-determinism", "two %s runs of the same case diverged: %+v vs %+v", cs.Technique, res, res2)
	}
	cr.EstimatedIPC = res.EstimatedIPC
	cr.ErrPct = res.ErrorPct()
	cr.Samples = res.Samples
	cr.Phases = res.Phases

	if res.Costs.Detailed != res.Samples*sampleOps {
		cr.violate("sample-budget", "detailed ops %d != %d samples × %d sample ops",
			res.Costs.Detailed, res.Samples, sampleOps)
	}
	if res.Costs.DetailedWarm != res.Samples*warmOps {
		cr.violate("sample-budget", "detailed warm ops %d != %d samples × %d warm ops",
			res.Costs.DetailedWarm, res.Samples, warmOps)
	}
	if res.Costs.PlainFF%intervalOps != 0 {
		cr.violate("technique-ledger", "classification pass %d ops is not whole %d-op intervals",
			res.Costs.PlainFF, intervalOps)
	}
	if res.Costs.PlainFF > p.TotalOps {
		cr.violate("technique-ledger", "classification pass %d ops exceeds the %d-op program (more than one full pass)",
			res.Costs.PlainFF, p.TotalOps)
	}
	if res.EstimatedIPC <= 0 || math.IsNaN(res.EstimatedIPC) || math.IsInf(res.EstimatedIPC, 0) {
		cr.violate("estimate", "estimated IPC %g is not positive and finite", res.EstimatedIPC)
	}
}

// liveReplayTolerance bounds the relative gap between a case's 1x1 live
// estimate and its serial replay estimate. Live samples start from
// functionally warmed state; replayed ones read the oracle's cycles.
const liveReplayTolerance = 0.01

// checkLive records a checkpoint library over the case's program and
// verifies the live engine: the single-shard live estimate must lie within
// liveReplayTolerance of the serial replay estimate, and the single-shard
// live run is the reference for every other shard layout.
func checkLive(ctx context.Context, cr *CaseResult, prog *program.Program, p *profile.Profile, hash *bbv.Hash, cfg core.Config, layouts []parallel.Options, replay sampling.Result) error {
	rec, err := buildCore(prog)
	if err != nil {
		return err
	}
	// Stride at a few FF periods: each shard and each sample restores the
	// nearest checkpoint and warms at most one stride forward.
	lib, err := checkpoint.Record(rec, 4*cfg.FFOps, 0)
	if err != nil {
		return fmt.Errorf("validate: case %d: checkpoint record: %w", cr.Seed, err)
	}
	if got := rec.M.Retired(); got != p.TotalOps {
		cr.violate("live-length", "checkpoint pass retired %d ops, oracle pass %d — the program is not deterministic", got, p.TotalOps)
		return nil
	}
	var mavHash *bbv.Hash
	if cfg.Channel.NeedsMAV() {
		if mavHash, err = bbv.NewMAVHash(bbv.DefaultMAVBits, hashSeed); err != nil {
			return err
		}
	}
	src, err := parallel.NewLiveSource(lib, hash, mavHash, prog, cpu.DefaultCoreConfig(), p.TotalOps, p.TrueIPC())
	if err != nil {
		return err
	}
	ref, refSt, err := parallel.Run(ctx, src, cfg, parallel.Options{Shards: 1, SampleWorkers: 1})
	if err != nil {
		return fmt.Errorf("validate: case %d: live reference: %w", cr.Seed, err)
	}
	// Written as !(gap <= bound) so that a NaN estimate fails too.
	if gap := math.Abs(ref.EstimatedIPC-replay.EstimatedIPC) / replay.EstimatedIPC; !(gap <= liveReplayTolerance) {
		cr.violate("live-replay", "live 1x1 estimate %.6f is %.3f%% from the replay estimate %.6f (bound %.0f%%)",
			ref.EstimatedIPC, gap*100, replay.EstimatedIPC, liveReplayTolerance*100)
	}
	for _, opts := range layouts {
		if opts.Shards == 1 && opts.SampleWorkers == 1 {
			continue
		}
		res, st, err := parallel.Run(ctx, src, cfg, opts)
		if err != nil {
			return fmt.Errorf("validate: case %d: live %dx%d: %w", cr.Seed, opts.Shards, opts.SampleWorkers, err)
		}
		if !reflect.DeepEqual(res, ref) {
			cr.violate("live-layout-result", "live shards=%d workers=%d Result diverged from 1x1:\n got %+v\nwant %+v",
				opts.Shards, opts.SampleWorkers, res, ref)
		}
		if !reflect.DeepEqual(st, refSt) {
			cr.violate("live-layout-stats", "live shards=%d workers=%d Stats diverged from 1x1:\n got %+v\nwant %+v",
				opts.Shards, opts.SampleWorkers, st, refSt)
		}
	}
	return nil
}

// checkAccounting verifies the hard bookkeeping invariants of one serial
// run against its oracle profile.
func checkAccounting(cr *CaseResult, p *profile.Profile, cfg core.Config, res sampling.Result, st core.Stats) {
	// Every simulated op lands in exactly one cost bucket.
	if got := res.Costs.Total(); got != p.TotalOps {
		cr.violate("op-conservation", "cost buckets sum to %d ops, oracle ran %d", got, p.TotalOps)
	}
	// Detailed costs tie out against executed samples: every executed valid
	// sample (recorded or discarded by the transition guard) costs exactly
	// WarmOps+SampleOps detailed ops; unmeasurable ones cost nothing.
	executed := st.SamplesTaken + st.GuardedSamples
	if res.Costs.Detailed != executed*cfg.SampleOps {
		cr.violate("sample-budget", "detailed ops %d != %d executed samples × %d sample ops",
			res.Costs.Detailed, executed, cfg.SampleOps)
	}
	if res.Costs.DetailedWarm != executed*cfg.WarmOps {
		cr.violate("sample-budget", "detailed warm ops %d != %d executed samples × %d warm ops",
			res.Costs.DetailedWarm, executed, cfg.WarmOps)
	}
	if res.Samples != st.SamplesTaken {
		cr.violate("sample-ledger", "Result.Samples %d != Stats.SamplesTaken %d", res.Samples, st.SamplesTaken)
	}
	var perPhase uint64
	for _, n := range st.PerPhaseSamples {
		perPhase += n
	}
	if perPhase != st.SamplesTaken {
		cr.violate("sample-ledger", "per-phase sample counts sum to %d, SamplesTaken is %d", perPhase, st.SamplesTaken)
	}
	// Phase ledger: every window and every op belongs to exactly one phase.
	var phaseOps, phaseIntervals uint64
	for _, d := range st.PhaseDiags {
		phaseOps += d.Ops
		phaseIntervals += d.Intervals
	}
	if phaseOps != p.TotalOps {
		cr.violate("phase-ledger", "phase ops sum to %d, oracle ran %d", phaseOps, p.TotalOps)
	}
	windows := (p.TotalOps + cfg.FFOps - 1) / cfg.FFOps
	if phaseIntervals != windows {
		cr.violate("phase-ledger", "phase intervals sum to %d, run had %d windows", phaseIntervals, windows)
	}
	if st.Phases != len(st.PhaseDiags) || st.Phases != len(st.PerPhaseSamples) {
		cr.violate("phase-ledger", "Phases=%d but %d diags / %d per-phase counts",
			st.Phases, len(st.PhaseDiags), len(st.PerPhaseSamples))
	}
	// Sample stream: positions strictly increase (op accounting is
	// monotone), and the spread rule held per phase.
	if uint64(len(st.SampleTrace)) != st.SamplesTaken {
		cr.violate("sample-trace", "trace has %d events, SamplesTaken is %d", len(st.SampleTrace), st.SamplesTaken)
	}
	lastByPhase := map[int]uint64{}
	var prev uint64
	for i, ev := range st.SampleTrace {
		if i > 0 && ev.Pos <= prev {
			cr.violate("sample-trace", "sample positions not strictly increasing: %d after %d", ev.Pos, prev)
		}
		prev = ev.Pos
		if last, ok := lastByPhase[ev.PhaseID]; ok && !cfg.DisableSpread {
			if ev.Pos-last < cfg.SpreadOps {
				cr.violate("spread-rule", "phase %d sampled at %d and %d, closer than SpreadOps=%d",
					ev.PhaseID, last, ev.Pos, cfg.SpreadOps)
			}
		}
		lastByPhase[ev.PhaseID] = ev.Pos
		if ev.CPI <= 0 || math.IsNaN(ev.CPI) || math.IsInf(ev.CPI, 0) {
			cr.violate("sample-trace", "recorded sample at %d has non-finite or non-positive CPI %g", ev.Pos, ev.CPI)
		}
	}
	if res.EstimatedIPC <= 0 || math.IsNaN(res.EstimatedIPC) {
		cr.violate("estimate", "estimated IPC %g is not positive and finite", res.EstimatedIPC)
	}
}

// Run executes a full validation campaign: opts.Cases generated cases on
// the campaign worker pool (panic recovery, journal, resume — the same
// fault tolerance simulation campaigns get), then the aggregate statistical
// checks over all case errors.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Cases <= 0 {
		opts.Cases = 1
	}
	if len(opts.Layouts) == 0 {
		opts.Layouts = DefaultLayouts()
	}

	rep := NewReport(opts)
	specs := make([]campaign.Spec, opts.Cases)
	for i := range specs {
		specs[i] = campaign.Spec{
			Benchmark: fmt.Sprintf("gen-%d", opts.Seed+int64(i)),
			Technique: "validate",
			Seed:      opts.Seed + int64(i),
		}
	}

	results := make([]CaseResult, opts.Cases)
	fn := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		cs := GenCase(sp.Seed)
		live := opts.LiveEvery > 0 && (sp.Seed-opts.Seed)%int64(opts.LiveEvery) == 0
		cr, err := RunCase(ctx, cs, opts.Layouts, live)
		results[sp.Seed-opts.Seed] = cr
		if err != nil {
			return sampling.Result{}, err
		}
		if len(cr.Violations) > 0 {
			return sampling.Result{}, fmt.Errorf("validate: case %d: %d invariant violation(s), first: %s",
				cs.Seed, len(cr.Violations), cr.Violations[0].Detail)
		}
		return sampling.Result{
			Technique:    "validate",
			Benchmark:    cs.Spec.Name,
			EstimatedIPC: cr.EstimatedIPC,
			TrueIPC:      cr.TrueIPC,
			Samples:      cr.Samples,
			Phases:       cr.Phases,
		}, nil
	}

	camp, err := campaign.Run(ctx, specs, fn, campaign.Options{
		Jobs:        opts.Jobs,
		JournalPath: opts.JournalPath,
		Resume:      opts.Resume,
		Logf:        opts.Logf,
	})
	if err != nil {
		return nil, err
	}

	for i, o := range camp.Outcomes {
		cr := results[i]
		if cr.Seed == 0 && o.Resumed {
			// Journal hit: the case did not re-run. Reconstruct the
			// statistical inputs from the journaled result; the hard
			// invariants were checked when the journal entry was written.
			cr = CaseResult{
				Seed:         specs[i].Seed,
				Benchmark:    o.Result.Benchmark,
				EstimatedIPC: o.Result.EstimatedIPC,
				TrueIPC:      o.Result.TrueIPC,
				ErrPct:       o.Result.ErrorPct(),
				Samples:      o.Result.Samples,
				Phases:       o.Result.Phases,
				Resumed:      true,
			}
		}
		if o.Err != nil && len(cr.Violations) == 0 {
			cr.violate("run-error", "case failed to run: %v", o.Err)
		}
		rep.add(cr)
	}
	rep.finish(opts)
	return rep, nil
}

// Replay regenerates and runs the single case for seed, with the live
// check enabled, and returns its result. This is `pgss-validate -replay`.
func Replay(ctx context.Context, seed int64, layouts []parallel.Options) (CaseResult, error) {
	return RunCase(ctx, GenCase(seed), layouts, true)
}

// sortViolations orders violations by seed then invariant for stable
// reports.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Seed != vs[j].Seed {
			return vs[i].Seed < vs[j].Seed
		}
		return vs[i].Invariant < vs[j].Invariant
	})
}
