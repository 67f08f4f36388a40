package core

import (
	"context"
	"math"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

var profileCache = map[string]*profile.Profile{}

func suiteProfile(t *testing.T, name string, ops uint64) *profile.Profile {
	t.Helper()
	if p, ok := profileCache[name]; ok {
		return p
	}
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.RecordContext(context.Background(), c, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profileCache[name] = p
	return p
}

func testConfig() Config {
	cfg := DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{FFOps: 1000, SampleOps: 1000, WarmOps: 3000, Eps: 0.03, MinSamples: 8},       // warm+sample > FF
		{FFOps: 10_000, SampleOps: 1000, ThresholdPi: 0.9, Eps: 0.03, MinSamples: 8},  // threshold too large
		{FFOps: 10_000, SampleOps: 1000, ThresholdPi: 0.05, Eps: 0, MinSamples: 8},    // eps
		{FFOps: 10_000, SampleOps: 1000, ThresholdPi: 0.05, Eps: 0.03, MinSamples: 0}, // min samples
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: accepted %+v", i, cfg)
		}
	}
	if DefaultConfig(10).Validate() != nil {
		t.Error("default config invalid")
	}
	if DefaultConfig(0).FFOps != 1_000_000 {
		t.Error("scale 0 should mean scale 1")
	}
}

func TestPGSSAccuracyOnPhasedBenchmark(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	res, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 5 {
		t.Errorf("PGSS error %.2f%% on ammp", res.ErrorPct())
	}
	if st.Phases < 2 {
		t.Errorf("only %d phases detected", st.Phases)
	}
	if res.Costs.Detailed == 0 || res.Samples == 0 {
		t.Error("no samples taken")
	}
	// The whole point: detailed ops ≪ program.
	if res.Costs.DetailedTotal() > p.TotalOps/10 {
		t.Errorf("detailed %d of %d ops — no reduction", res.Costs.DetailedTotal(), p.TotalOps)
	}
	// Cost ledger covers the program.
	if res.Costs.Total() != p.TotalOps {
		t.Errorf("cost ledger %d of %d ops", res.Costs.Total(), p.TotalOps)
	}
}

func TestPGSSUsesFewerSamplesThanSMARTS(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	res, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sampling.SMARTS(sampling.NewProfileTarget(p), sampling.SMARTSConfig{
		PeriodOps: 100_000, WarmOps: 3000, SampleOps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples >= sm.Samples {
		t.Errorf("PGSS took %d samples, SMARTS %d — phase guidance saved nothing",
			res.Samples, sm.Samples)
	}
}

func TestStablePhaseStopsSampling(t *testing.T) {
	// On a stable single-phase benchmark the confidence bound must close
	// and sampling stop: far fewer samples than windows.
	p := suiteProfile(t, "188.ammp", 20_000_000)
	res, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	windows := p.TotalOps / testConfig().FFOps
	if res.Samples > windows/3 {
		t.Errorf("sampling never converged: %d samples in %d windows", res.Samples, windows)
	}
	if st.SamplesSkipped == 0 {
		t.Error("no windows skipped by the confidence bound")
	}
}

func TestSpreadRuleDefers(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	cfg := testConfig()
	cfg.SpreadOps = 500_000 // large spread forces deferrals
	_, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpreadDeferrals == 0 {
		t.Error("large spread produced no deferrals")
	}
	cfg.DisableSpread = true
	_, st2, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpreadDeferrals != 0 {
		t.Error("disabled spread still deferred")
	}
	if st2.SamplesTaken < st.SamplesTaken {
		t.Error("disabling the spread rule reduced samples")
	}
}

func TestThresholdControlsPhaseCount(t *testing.T) {
	p := suiteProfile(t, "253.perlbmk", 20_000_000)
	counts := map[float64]int{}
	for _, th := range []float64{0.01, 0.25, 0.5} {
		cfg := testConfig()
		cfg.ThresholdPi = th
		_, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[th] = st.Phases
	}
	if !(counts[0.01] >= counts[0.25] && counts[0.25] >= counts[0.5]) {
		t.Errorf("phase count not monotone in threshold: %v", counts)
	}
	if counts[0.5] != 1 {
		t.Errorf("max threshold produced %d phases, want 1", counts[0.5])
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	r1, s1, _ := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	r2, s2, _ := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if r1.EstimatedIPC != r2.EstimatedIPC || s1.SamplesTaken != s2.SamplesTaken {
		t.Error("PGSS runs are not deterministic")
	}
}

func TestDisableConfidenceFixedBudget(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	cfg := testConfig()
	cfg.DisableConfidence = true
	cfg.MinSamples = 3
	_, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range st.PerPhaseSamples {
		// Each phase gets at most MinSamples plus one in-flight sample.
		if n > cfg.MinSamples+1 {
			t.Errorf("phase %d took %d samples with fixed budget %d", i, n, cfg.MinSamples)
		}
	}
}

func TestTraceRecordsSamples(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	cfg := testConfig()
	cfg.Trace = true
	res, st, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(st.SampleTrace)) != res.Samples {
		t.Errorf("trace has %d events for %d samples", len(st.SampleTrace), res.Samples)
	}
	for i := 1; i < len(st.SampleTrace); i++ {
		if st.SampleTrace[i].Pos <= st.SampleTrace[i-1].Pos {
			t.Fatal("trace positions not increasing")
		}
	}
}

func TestPerPhaseAdaptiveAllocation(t *testing.T) {
	// art's micro-phase mixing creates unstable phases that must receive
	// more samples than ammp's stable phases, per the paper's §3 claim.
	art := suiteProfile(t, "179.art", 20_000_000)
	_, stArt, err := RunContext(context.Background(), sampling.NewProfileTarget(art), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ammp := suiteProfile(t, "188.ammp", 20_000_000)
	_, stAmmp, err := RunContext(context.Background(), sampling.NewProfileTarget(ammp), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	maxSamples := func(st Stats) uint64 {
		var m uint64
		for _, n := range st.PerPhaseSamples {
			if n > m {
				m = n
			}
		}
		return m
	}
	if maxSamples(stArt) <= maxSamples(stAmmp) {
		t.Errorf("unstable benchmark got fewer samples per phase (art %d vs ammp %d)",
			maxSamples(stArt), maxSamples(stAmmp))
	}
}

func TestSweepGrid(t *testing.T) {
	sweep := Sweep(10)
	if len(sweep) != 15 {
		t.Errorf("sweep has %d configs, want 15", len(sweep))
	}
	seen := map[string]bool{}
	for _, cfg := range sweep {
		if err := cfg.Validate(); err != nil {
			t.Errorf("sweep config invalid: %v", err)
		}
		if seen[cfg.String()] {
			t.Errorf("duplicate sweep config %s", cfg)
		}
		seen[cfg.String()] = true
	}
}

func TestBestPicksMinimumError(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 20_000_000)
	mk := func() sampling.Target { return sampling.NewProfileTarget(p) }
	best, all, err := Best(context.Background(), mk, Sweep(10)[:6])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.ErrorPct() < best.ErrorPct() {
			t.Error("Best did not pick the minimum")
		}
	}
}

func TestEstimateIsCPIWeighted(t *testing.T) {
	// Construct a synthetic profile replay through a fake target with two
	// phases of known CPI and check the combined estimate.
	p := suiteProfile(t, "168.wupwise", 25_000_000)
	res, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// wupwise is strongly bimodal; a naive IPC-mean estimator is biased
	// high by several percent. The CPI-weighted estimate must stay close.
	if res.ErrorPct() > 4 {
		t.Errorf("bimodal benchmark error %.2f%% — estimator bias?", res.ErrorPct())
	}
	if math.IsNaN(res.EstimatedIPC) || res.EstimatedIPC <= 0 {
		t.Error("invalid estimate")
	}
}

func TestAblationFlagsChangeBehaviour(t *testing.T) {
	p := suiteProfile(t, "253.perlbmk", 20_000_000)
	base, stBase, err := RunContext(context.Background(), sampling.NewProfileTarget(p), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.NoCurrentFirst = true
	_, stNoCF, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stNoCF.Comparisons <= stBase.Comparisons {
		t.Errorf("disabling current-first should raise comparisons: %d vs %d",
			stNoCF.Comparisons, stBase.Comparisons)
	}
	cfgM := testConfig()
	cfgM.Manhattan = true
	cfgM.ThresholdPi = 0.15 // interpreted as L1 distance
	resM, _, err := RunContext(context.Background(), sampling.NewProfileTarget(p), cfgM)
	if err != nil {
		t.Fatal(err)
	}
	if resM.EstimatedIPC == base.EstimatedIPC && resM.Samples == base.Samples {
		t.Log("Manhattan metric produced identical run (possible, unusual)")
	}
}
