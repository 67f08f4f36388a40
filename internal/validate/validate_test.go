package validate

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/sampling"
)

// fastLayouts keeps unit tests cheap: two layouts still cross the
// serial/parallel and multi-shard boundaries.
func fastLayouts() []parallel.Options {
	return []parallel.Options{
		{Shards: 1, SampleWorkers: 1},
		{Shards: 3, SampleWorkers: 2},
	}
}

func TestGenCaseDeterministic(t *testing.T) {
	a, b := GenCase(42), GenCase(42)
	if a.Config != b.Config {
		t.Fatalf("configs diverged: %+v vs %+v", a.Config, b.Config)
	}
	if a.TotalOps != b.TotalOps || a.Spec.Name != b.Spec.Name || a.Spec.Seed != b.Spec.Seed {
		t.Fatalf("specs diverged: %+v vs %+v", a.Spec, b.Spec)
	}
	pa, err := a.Spec.Build(a.TotalOps)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Spec.Build(b.TotalOps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa.Code, pb.Code) || !reflect.DeepEqual(pa.Data, pb.Data) {
		t.Fatal("built programs diverged for the same seed")
	}
	if c := GenCase(43); c.Config == a.Config && c.TotalOps == a.TotalOps {
		t.Fatal("distinct seeds generated identical cases")
	}
}

func TestGenCaseConfigsValid(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		cs := GenCase(seed)
		if err := cs.Config.Validate(); err != nil {
			t.Errorf("seed %d: generated invalid config %+v: %v", seed, cs.Config, err)
		}
		if cs.Config.FFOps%bbvGran != 0 {
			t.Errorf("seed %d: FFOps %d not aligned to the BBV recording interval", seed, cs.Config.FFOps)
		}
		if cs.Config.WarmOps%fineGran != 0 || cs.Config.SampleOps%fineGran != 0 {
			t.Errorf("seed %d: warm/sample %d/%d not aligned to the fine interval",
				seed, cs.Config.WarmOps, cs.Config.SampleOps)
		}
		if !cs.Config.Trace {
			t.Errorf("seed %d: Trace must be on for the sample-stream invariants", seed)
		}
	}
}

func TestRunCaseCleanSeeds(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		cr, err := RunCase(context.Background(), GenCase(seed), fastLayouts(), seed == 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(cr.Violations) > 0 {
			t.Fatalf("seed %d: unexpected violations: %+v", seed, cr.Violations)
		}
		if cr.Samples == 0 || cr.Phases == 0 || cr.TrueIPC <= 0 {
			t.Fatalf("seed %d: degenerate case result %+v", seed, cr)
		}
	}
}

func TestReplayMatchesCampaignRun(t *testing.T) {
	cr, err := Replay(context.Background(), 3, fastLayouts())
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunCase(context.Background(), GenCase(3), fastLayouts(), true)
	if err != nil {
		t.Fatal(err)
	}
	if cr.ErrPct != again.ErrPct || cr.Samples != again.Samples || cr.EstimatedIPC != again.EstimatedIPC {
		t.Fatalf("replay diverged from direct run: %+v vs %+v", cr, again)
	}
	if !cr.LiveChecked {
		t.Fatal("replay must force the live check on")
	}
}

// TestCheckAccountingDetectsCorruption proves the checker has teeth: every
// corrupted ledger field must raise its invariant.
func TestCheckAccountingDetectsCorruption(t *testing.T) {
	cs := GenCase(1)
	prog, err := cs.Spec.Build(cs.TotalOps)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewProgramCore(prog, cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	hash, err := bbv.NewHash(bbv.DefaultHashBits, hashSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.RecordContext(context.Background(), c, hash, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cs.Config)
	if err != nil {
		t.Fatal(err)
	}

	check := func(mut func(*sampling.Result, *core.Stats), invariant string) {
		t.Helper()
		r, s := res, st
		// Deep-copy the slices a mutation may touch.
		s.PerPhaseSamples = append([]uint64(nil), st.PerPhaseSamples...)
		s.PhaseDiags = append([]core.PhaseDiag(nil), st.PhaseDiags...)
		s.SampleTrace = append([]core.SampleEvent(nil), st.SampleTrace...)
		mut(&r, &s)
		cr := CaseResult{Seed: cs.Seed}
		checkAccounting(&cr, p, cs.Config, r, s)
		for _, v := range cr.Violations {
			if v.Invariant == invariant {
				return
			}
		}
		t.Errorf("corruption aimed at %q went undetected; got %+v", invariant, cr.Violations)
	}

	// The uncorrupted run must be clean.
	clean := CaseResult{Seed: cs.Seed}
	checkAccounting(&clean, p, cs.Config, res, st)
	if len(clean.Violations) > 0 {
		t.Fatalf("clean run reported violations: %+v", clean.Violations)
	}

	check(func(r *sampling.Result, s *core.Stats) { r.Costs.FunctionalWarm++ }, "op-conservation")
	check(func(r *sampling.Result, s *core.Stats) { r.Costs.Detailed += cs.Config.SampleOps }, "sample-budget")
	check(func(r *sampling.Result, s *core.Stats) { r.Samples++ }, "sample-ledger")
	check(func(r *sampling.Result, s *core.Stats) { s.PerPhaseSamples[0]++ }, "sample-ledger")
	check(func(r *sampling.Result, s *core.Stats) { s.PhaseDiags[0].Ops++ }, "phase-ledger")
	check(func(r *sampling.Result, s *core.Stats) { s.PhaseDiags[0].Intervals++ }, "phase-ledger")
	check(func(r *sampling.Result, s *core.Stats) { s.SampleTrace = s.SampleTrace[1:] }, "sample-trace")
	check(func(r *sampling.Result, s *core.Stats) {
		s.SampleTrace[1].Pos = s.SampleTrace[0].Pos // non-increasing
	}, "sample-trace")
	check(func(r *sampling.Result, s *core.Stats) {
		// Two same-phase samples closer than SpreadOps.
		s.SampleTrace[1].PhaseID = s.SampleTrace[0].PhaseID
		s.SampleTrace[1].Pos = s.SampleTrace[0].Pos + 1
	}, "spread-rule")
	check(func(r *sampling.Result, s *core.Stats) { r.EstimatedIPC = -1 }, "estimate")
}

func TestRunAggregatesAndBounds(t *testing.T) {
	opts := DefaultOptions()
	opts.Cases = 8
	opts.Seed = 1
	opts.Layouts = fastLayouts()
	opts.LiveEvery = 0
	rep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("expected clean report, got violations: %+v", rep.Violations)
	}
	if rep.Checked != 8 || len(rep.Results) != 8 {
		t.Fatalf("checked %d / %d results, want 8", rep.Checked, len(rep.Results))
	}
	if rep.MeanErrPct <= 0 || rep.MaxErrPct < rep.MeanErrPct {
		t.Fatalf("implausible aggregates: mean %.3f max %.3f", rep.MeanErrPct, rep.MaxErrPct)
	}

	// An unreachable mean bound must fail the run with the aggregate
	// violation — and the report must stay JSON-serialisable.
	opts.MaxMeanErrPct = 1e-9
	rep, err = Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("report passed despite an unreachable mean-error bound")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "aggregate-error-bound" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing aggregate-error-bound violation: %+v", rep.Violations)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	var buf strings.Builder
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "aggregate-error-bound") {
		t.Fatalf("human-readable report omits the violation:\n%s", buf.String())
	}
}

func TestViolationCarriesReplaySeed(t *testing.T) {
	cr := CaseResult{Seed: 77}
	cr.violate("demo", "it broke: %d", 5)
	v := cr.Violations[0]
	if v.Seed != 77 || v.Detail != "it broke: 5" {
		t.Fatalf("bad violation: %+v", v)
	}
	if !strings.Contains(v.Replay, "-replay 77") {
		t.Fatalf("violation replay hint %q does not name the seed", v.Replay)
	}
}
