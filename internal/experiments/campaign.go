package experiments

import (
	"context"
	"fmt"

	"pgss/internal/campaign"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// technique is one entry of the technique table: a campaign name plus a
// run that builds the technique's paper configuration at the suite's scale
// and runs it on one profile. Seeded techniques take the seed; the others
// ignore it.
type technique struct {
	name string
	run  func(ctx context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error)
}

// techniqueTable is the technique table, in report order. Campaigns,
// pgss-bench's technique list and the figures' paper-configuration rows
// all read it.
var techniqueTable = []technique{
	{"PGSS", func(ctx context.Context, s *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
		res, _, err := core.RunContext(ctx, sampling.NewProfileTarget(p), core.DefaultConfig(s.Scale()))
		return res, err
	}},
	{"PGSS-Live", runLive},
	{"PGSS-Adaptive", func(ctx context.Context, s *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
		res, _, err := core.RunAdaptive(ctx, sampling.NewProfileTarget(p), core.DefaultAdaptiveConfig(s.Scale()))
		return res, err
	}},
	{"SMARTS", func(_ context.Context, s *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
		return sampling.SMARTS(sampling.NewProfileTarget(p), sampling.DefaultSMARTSConfig(s.Scale()))
	}},
	{"TurboSMARTS", func(_ context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultTurboSMARTSConfig(s.Scale())
		cfg.Seed = seed
		return sampling.TurboSMARTS(p, cfg)
	}},
	{"SimPoint", func(_ context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error) {
		cfg := sampling.SimPointOverall(s.Scale())
		cfg.Seed = seed
		return sampling.SimPoint(p, cfg)
	}},
	{"OnlineSimPoint", func(_ context.Context, s *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
		return sampling.OnlineSimPoint(p, sampling.OnlineSimPointOverall(s.Scale()))
	}},
	{"Stratified", func(_ context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultStratifiedConfig(s.Scale())
		cfg.Seed = seed
		return sampling.Stratified(p, cfg)
	}},
	{"2PSS", func(_ context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultTwoPhaseConfig(s.Scale())
		cfg.Seed = seed
		return sampling.TwoPhase(p, cfg)
	}},
	{"RSS", func(_ context.Context, s *Suite, p *profile.Profile, seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultRankedSetConfig(s.Scale())
		cfg.Seed = seed
		return sampling.RankedSet(p, cfg)
	}},
	{"Full", func(_ context.Context, _ *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
		return sampling.Full(sampling.NewProfileTarget(p), p.BBVOps)
	}},
}

// runLive is PGSS-Live: checkpoint-accelerated live execution on the
// sharded engine. The benchmark's checkpoint library (recorded once,
// shared via the artifact store when one is configured) lets every
// detailed sample restore from the nearest stored checkpoint instead of
// fast-forwarding from op 0. The recorded profile supplies only TrueIPC
// for reporting.
func runLive(ctx context.Context, s *Suite, p *profile.Profile, _ int64) (sampling.Result, error) {
	lib, err := s.CheckpointLibrary(p.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	spec, err := workload.Get(p.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	// Cores must be built at the same length as the library's recording
	// core (the snapshot pins the machine footprint); the profile's
	// TotalOps is the retired count, which the generator may round. One
	// program serves every shard and sample worker of the run.
	prog, err := spec.Build(s.targetOps(spec))
	if err != nil {
		return sampling.Result{}, err
	}
	src, err := parallel.NewLiveSource(lib, s.hash, nil, prog, cpu.DefaultCoreConfig(), p.TotalOps, p.TrueIPC())
	if err != nil {
		return sampling.Result{}, err
	}
	res, _, err := parallel.Run(ctx, src, core.DefaultConfig(s.Scale()),
		parallel.Options{Shards: s.opts.Shards, SampleWorkers: s.opts.SampleWorkers})
	return res, err
}

// lookupTechnique returns the table entry of the named technique.
func lookupTechnique(name string) (technique, bool) {
	for _, t := range techniqueTable {
		if t.name == name {
			return t, true
		}
	}
	return technique{}, false
}

// runTechnique runs the named technique at its paper configuration on p.
func (s *Suite) runTechnique(ctx context.Context, name string, p *profile.Profile, seed int64) (sampling.Result, error) {
	t, ok := lookupTechnique(name)
	if !ok {
		return sampling.Result{}, pgsserrors.Invalidf(
			"experiments: unknown campaign technique %q (have %v)", name, CampaignTechniques())
	}
	return t.run(ctx, s, p, seed)
}

// paperRun returns a figure row's run of the named technique: its paper
// configuration at seed 1, the seed every default configuration uses.
func (s *Suite) paperRun(name string) profileRun {
	return func(p *profile.Profile) (sampling.Result, error) {
		return s.runTechnique(s.ctx(), name, p, 1)
	}
}

// CampaignTechniques lists the technique table's names in report order.
// Seeded techniques (TurboSMARTS, SimPoint, Stratified, 2PSS, RSS) vary
// with the spec seed; the deterministic ones ignore it.
func CampaignTechniques() []string {
	names := make([]string, len(techniqueTable))
	for i, t := range techniqueTable {
		names[i] = t.name
	}
	return names
}

// CampaignSpecs builds the benchmark × technique × seed grid. seeds = 1
// runs each pair once with seed 1.
func CampaignSpecs(benchmarks, techniques []string, seeds int) []campaign.Spec {
	if seeds < 1 {
		seeds = 1
	}
	seedVals := make([]int64, seeds)
	for i := range seedVals {
		seedVals[i] = int64(i + 1)
	}
	return campaign.Grid(benchmarks, techniques, seedVals)
}

// CampaignRun executes one campaign spec: it resolves the benchmark's
// profile (recording on first use, shared across runs) and runs the
// spec's technique from the table at the suite's scale. It is the
// campaign.RunFunc of the pgss-bench campaign mode.
func (s *Suite) CampaignRun(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
	p, err := s.Profile(sp.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	return s.runTechnique(ctx, sp.Technique, p, sp.Seed)
}

// ResolveTechniques checks every name against the technique table,
// expands "all" where it appears and drops repeated names, keeping the
// order of first occurrence. No names means every technique.
func ResolveTechniques(names []string) ([]string, error) {
	if len(names) == 0 {
		return CampaignTechniques(), nil
	}
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range names {
		if n == "all" {
			for _, t := range techniqueTable {
				add(t.name)
			}
			continue
		}
		if _, ok := lookupTechnique(n); !ok {
			return nil, fmt.Errorf("experiments: unknown technique %q (have %v or 'all')",
				n, CampaignTechniques())
		}
		add(n)
	}
	return out, nil
}
