package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pgss/internal/pgsserrors"
	"pgss/internal/sampling"
)

func TestAdaptiveConfigValidation(t *testing.T) {
	good := DefaultAdaptiveConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.EpochWindows = 0
	if bad.Validate() == nil {
		t.Error("zero epoch accepted")
	}
	bad = good
	bad.ThresholdStep = 1.0
	if bad.Validate() == nil {
		t.Error("unit threshold step accepted")
	}
	bad = good
	bad.ThresholdMin = 0.4
	bad.ThresholdMax = 0.2
	if bad.Validate() == nil {
		t.Error("inverted threshold bounds accepted")
	}
}

func TestAdaptiveOnStableBenchmark(t *testing.T) {
	// On a well-phased benchmark the adaptive controller should be at
	// least as accurate as the fixed overall configuration and not blow up
	// the sample count.
	p := suiteProfile(t, "188.ammp", 20_000_000)
	res, ast, err := RunAdaptive(context.Background(), sampling.NewProfileTarget(p), DefaultAdaptiveConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 5 {
		t.Errorf("adaptive error %.2f%%", res.ErrorPct())
	}
	if res.Costs.Total() != p.TotalOps {
		t.Errorf("cost ledger %d of %d", res.Costs.Total(), p.TotalOps)
	}
	if ast.FinalFFOps == 0 || ast.FinalThresholdPi == 0 {
		t.Error("final parameters missing")
	}
}

func TestAdaptiveCoarsensOnMicroPhases(t *testing.T) {
	// 179.art's micro-phases churn the phase table at fine BBV periods;
	// the controller must detect the churn and raise the FF period — the
	// adjustment the paper applies by hand in §5.
	p := suiteProfile(t, "179.art", 20_000_000)
	cfg := DefaultAdaptiveConfig(10)
	cfg.Base.FFOps = 10_000 // start deliberately too fine
	cfg.Base.SpreadOps = 10_000
	cfg.MaxFFOps = 1_600_000
	res, ast, err := RunAdaptive(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ast.FinalFFOps <= 10_000 {
		t.Errorf("controller did not coarsen: final FF %d", ast.FinalFFOps)
	}
	coarsened := false
	for _, a := range ast.Adjustments {
		if strings.Contains(a, "FF period") {
			coarsened = true
		}
	}
	if !coarsened {
		t.Errorf("no FF-period adjustment recorded: %v", ast.Adjustments)
	}
	// Every phase table the run used, retired ones included, reports its
	// phases.
	if ast.Restarts == 0 || ast.Phases != len(ast.PhaseDiags) || ast.Phases != len(ast.PerPhaseSamples) {
		t.Errorf("restarts %d, phases %d, diags %d, per-phase samples %d",
			ast.Restarts, ast.Phases, len(ast.PhaseDiags), len(ast.PerPhaseSamples))
	}
	// And it must not be less accurate than staying at the too-fine
	// period (at this short profile length art is hard for everything;
	// what matters is that adaptation does not hurt).
	fixed, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg.Base)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > fixed.ErrorPct()*1.2 {
		t.Errorf("adaptive error %.2f%% vs fixed %.2f%%", res.ErrorPct(), fixed.ErrorPct())
	}
}

func TestAdaptiveCancelled(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := RunAdaptive(ctx, sampling.NewProfileTarget(p), DefaultAdaptiveConfig(10))
	if !errors.Is(err, pgsserrors.ErrBudgetExceeded) {
		t.Fatalf("cancelled run: got %v, want ErrBudgetExceeded", err)
	}
	if res.Technique != "PGSS-Adaptive" || res.Benchmark != p.Benchmark {
		t.Errorf("partial result not labelled: %v", res)
	}
}

func TestAdaptiveVsFixedOnPathologicalStart(t *testing.T) {
	// Starting from a too-fine period, the adaptive run should spend fewer
	// detailed ops than the fixed run at the same starting parameters.
	p := suiteProfile(t, "179.art", 20_000_000)
	fixed := DefaultConfig(10)
	fixed.FFOps = 10_000
	fixed.SpreadOps = 10_000
	rFixed, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), fixed)
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAdaptiveConfig(10)
	acfg.Base = fixed
	acfg.MaxFFOps = 1_600_000
	rAdaptive, _, err := RunAdaptive(context.Background(), sampling.NewProfileTarget(p), acfg)
	if err != nil {
		t.Fatal(err)
	}
	if rAdaptive.Costs.DetailedTotal() >= rFixed.Costs.DetailedTotal() {
		t.Errorf("adaptive did not reduce detail: %d vs fixed %d",
			rAdaptive.Costs.DetailedTotal(), rFixed.Costs.DetailedTotal())
	}
}

func TestTransitionGuardReducesPoisoning(t *testing.T) {
	// On a benchmark with frequent transitions, guarded PGSS must discard
	// some samples and not be less accurate than unguarded.
	p := suiteProfile(t, "253.perlbmk", 20_000_000)
	cfg := testConfig()
	unguarded, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GuardTransitions = true
	guarded, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.GuardedSamples == 0 {
		t.Error("guard never fired on a transition-heavy benchmark")
	}
	t.Logf("unguarded err %.2f%% (%d samples), guarded err %.2f%% (%d samples, %d discarded)",
		unguarded.ErrorPct(), unguarded.Samples, guarded.ErrorPct(), guarded.Samples, st.GuardedSamples)
}

func TestGuardedSamplesNotCounted(t *testing.T) {
	p := suiteProfile(t, "253.perlbmk", 20_000_000)
	cfg := testConfig()
	cfg.GuardTransitions = true
	cfg.Trace = true
	res, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(st.SampleTrace)) != res.Samples {
		t.Errorf("trace %d events vs %d recorded samples", len(st.SampleTrace), res.Samples)
	}
	if res.Samples+st.GuardedSamples < res.Samples {
		t.Error("counter overflow")
	}
	// Detailed cost covers discarded samples too: the ops were spent.
	if res.Costs.Detailed < res.Samples*cfg.SampleOps {
		t.Error("detailed cost below recorded samples")
	}
}
