package sampling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/workload"
)

// suiteProfile records a small profile of the named benchmark (cached per
// test binary run).
var profileCache = map[string]*profile.Profile{}

func suiteProfile(t *testing.T, name string, ops uint64) *profile.Profile {
	t.Helper()
	key := name
	if p, ok := profileCache[key]; ok {
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
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.RecordContext(context.Background(), core, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profileCache[key] = p
	return p
}

func TestProfileTargetWindows(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	tgt := NewProfileTarget(p)
	if tgt.Benchmark() != p.Benchmark || tgt.TrueIPC() != p.TrueIPC() {
		t.Error("target metadata wrong")
	}
	var ops uint64
	for {
		w, ok := tgt.NextWindow(100_000, 3000, 1000)
		if !ok {
			break
		}
		ops += w.Ops
		if w.SampleOps > 0 && (math.IsNaN(w.SampleIPC) || w.SampleIPC <= 0) {
			t.Error("sample present but IPC invalid")
		}
		if w.BBV == nil {
			t.Error("window without BBV")
		}
	}
	if ops != p.TotalOps {
		t.Errorf("windows covered %d of %d ops", ops, p.TotalOps)
	}
	if _, ok := tgt.NextWindow(100_000, 3000, 1000); ok || tgt.Pos() != p.TotalOps {
		t.Error("target not done after exhaustion")
	}
}

func TestProfileTargetAlignmentErrors(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	tgt := NewProfileTarget(p)
	if _, ok := tgt.NextWindow(15_000, 0, 0); ok { // not a multiple of BBVOps (10k)
		t.Error("unaligned window accepted")
	}
	if err := tgt.Err(); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("unaligned window: got %v, want ErrMisalignedWindow", err)
	}
	// The error is sticky: further calls keep failing.
	if _, ok := tgt.NextWindow(10_000, 0, 0); ok {
		t.Error("target advanced past a sticky error")
	}
	if _, ok := NewProfileTarget(p).NextWindow(10_000, 0, 0); !ok {
		t.Error("fresh target refused an aligned window")
	}
}

// TestControllersSurfaceTargetErrors: a misaligned configuration must reach
// the caller as a structured error, not a panic or a silent empty result.
// SMARTS reads only recorded cycles, so its sizes need only the profile's
// fine alignment.
func TestControllersSurfaceTargetErrors(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := DefaultSMARTSConfig(10)
	cfg.PeriodOps = 15_500 // not a multiple of FineOps
	if _, err := SMARTS(p, cfg); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("SMARTS: got %v, want ErrMisalignedWindow", err)
	}
	cfg.PeriodOps = 15_000 // a multiple of FineOps, not of BBVOps
	if res, err := SMARTS(p, cfg); err != nil || res.Costs.Total() != p.TotalOps {
		t.Errorf("SMARTS at a fine-aligned period: %+v, %v", res.Costs, err)
	}
}

func TestFullReproducesTruthExactly(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	res, err := Full(p)
	if err != nil {
		t.Fatal(err)
	}
	// Full does not measure the trailing partial interval, so the estimate
	// excludes those few ops; anything beyond that rounding is an
	// estimator bug.
	if math.Abs(res.EstimatedIPC-p.TrueIPC())/p.TrueIPC() > 1e-4 {
		t.Errorf("full simulation estimate %.9f vs truth %.9f", res.EstimatedIPC, p.TrueIPC())
	}
	if res.Costs.Detailed != p.TotalOps {
		t.Errorf("full simulation detailed %d of %d ops", res.Costs.Detailed, p.TotalOps)
	}
}

func TestSMARTSAccurateAndCheap(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := DefaultSMARTSConfig(10)
	res, err := SMARTS(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 5 {
		t.Errorf("SMARTS error %.2f%%", res.ErrorPct())
	}
	wantSamples := p.TotalOps / cfg.PeriodOps
	if res.Samples < wantSamples-2 || res.Samples > wantSamples+2 {
		t.Errorf("SMARTS samples = %d, want ≈ %d", res.Samples, wantSamples)
	}
	if res.Costs.Detailed != res.Samples*cfg.SampleOps {
		t.Error("detailed cost mismatch")
	}
	if res.Costs.Total() != p.TotalOps {
		t.Errorf("SMARTS costs total %d of %d", res.Costs.Total(), p.TotalOps)
	}
}

func TestSMARTSConfigValidation(t *testing.T) {
	bad := []SMARTSConfig{
		{PeriodOps: 0, SampleOps: 1000},
		{PeriodOps: 1000, SampleOps: 0},
		{PeriodOps: 2000, WarmOps: 1500, SampleOps: 1000},
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("accepted %+v", cfg)
		}
	}
}

func TestTurboSMARTSStopsEarly(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := DefaultTurboSMARTSConfig(10)
	res, err := TurboSMARTS(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := SMARTS(p, cfg.SMARTS)
	if res.Samples > full.Samples {
		t.Errorf("TurboSMARTS used more samples (%d) than SMARTS (%d)", res.Samples, full.Samples)
	}
	if res.Samples < cfg.MinSamples {
		t.Errorf("TurboSMARTS below MinSamples: %d", res.Samples)
	}
	// Checkpointed: no fast-forwarding charged.
	if res.Costs.FunctionalWarm != 0 || res.Costs.PlainFF != 0 {
		t.Error("TurboSMARTS charged fast-forwarding")
	}
}

func TestTurboSMARTSDeterministicPerSeed(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := DefaultTurboSMARTSConfig(10)
	r1, _ := TurboSMARTS(p, cfg)
	r2, _ := TurboSMARTS(p, cfg)
	if r1.EstimatedIPC != r2.EstimatedIPC || r1.Samples != r2.Samples {
		t.Error("same seed, different result")
	}
	cfg.Seed = 7
	r3, _ := TurboSMARTS(p, cfg)
	if r3.Samples == r1.Samples && r3.EstimatedIPC == r1.EstimatedIPC {
		t.Log("different seed produced identical result (possible but unlikely)")
	}
}

func TestSimPointEstimates(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := SimPointConfig{IntervalOps: 100_000, K: 5, Seed: 1}
	res, err := SimPoint(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 10 {
		t.Errorf("SimPoint error %.2f%%", res.ErrorPct())
	}
	if res.Samples == 0 || res.Samples > 5 {
		t.Errorf("SimPoint used %d representatives", res.Samples)
	}
	// Detailed ≤ k × interval; profiling pass charged as plain FF.
	if res.Costs.Detailed > uint64(cfg.K)*cfg.IntervalOps {
		t.Errorf("detailed %d exceeds k×interval", res.Costs.Detailed)
	}
	if res.Costs.PlainFF != p.TotalOps {
		t.Error("profiling pass not charged")
	}
}

func TestSimPointValidation(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	if _, err := SimPoint(p, SimPointConfig{IntervalOps: 15_000, K: 3}); err == nil {
		t.Error("unaligned interval accepted")
	}
	if _, err := SimPoint(p, SimPointConfig{IntervalOps: 100_000, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	// Interval longer than the program: no intervals.
	if _, err := SimPoint(p, SimPointConfig{IntervalOps: 1 << 40, K: 3}); err == nil {
		t.Error("oversized interval accepted")
	}
}

func TestSimPointSweepShape(t *testing.T) {
	sweep := SimPointSweep(10)
	if len(sweep) != 11 {
		t.Errorf("sweep has %d configs, want 11", len(sweep))
	}
	overall := SimPointOverall(10)
	if overall.K != 10 || overall.IntervalOps != 10_000_000 {
		t.Errorf("overall config: %+v", overall)
	}
}

func TestSimPointBestPicksLowestError(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	sweep := []SimPointConfig{
		{IntervalOps: 100_000, K: 1, Seed: 1},
		{IntervalOps: 100_000, K: 5, Seed: 1},
	}
	var all []Result
	best, err := BestOf(sweep, func(cfg SimPointConfig) (Result, error) {
		r, err := SimPoint(p, cfg)
		if err == nil {
			all = append(all, r)
		}
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.ErrorPct() < best.ErrorPct() {
			t.Error("best is not the minimum")
		}
	}
}

// TestBestOf: the sweep helper keeps the lowest error, skips a failing
// configuration and stops at a budget error. Each configuration here is
// the estimate its run returns against a true IPC of 1; 0 fails and -1
// exceeds the budget.
func TestBestOf(t *testing.T) {
	var ran []float64
	run := func(est float64) (Result, error) {
		ran = append(ran, est)
		switch est {
		case 0:
			return Result{}, errors.New("interval longer than the program")
		case -1:
			return Result{}, fmt.Errorf("run: %w", pgsserrors.ErrBudgetExceeded)
		}
		return Result{Technique: "t", EstimatedIPC: est, TrueIPC: 1}, nil
	}

	best, err := BestOf([]float64{1.2, 0, 0.95, 1.1}, run)
	if err != nil || best.EstimatedIPC != 0.95 || len(ran) != 4 {
		t.Errorf("best = %v, %v after %v; want 0.95 after all four", best.EstimatedIPC, err, ran)
	}
	ran = nil
	if _, err := BestOf([]float64{1.2, -1, 0.95}, run); !errors.Is(err, pgsserrors.ErrBudgetExceeded) ||
		!reflect.DeepEqual(ran, []float64{1.2, -1}) {
		t.Errorf("budget stop: got %v after %v", err, ran)
	}
	if _, err := BestOf([]float64{0}, run); !errors.Is(err, pgsserrors.ErrInfeasible) {
		t.Errorf("all failed: got %v, want ErrInfeasible", err)
	}
}

func TestOnlineSimPoint(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := OnlineSimPointConfig{IntervalOps: 100_000, ThresholdPi: 0.1}
	res, err := OnlineSimPoint(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 || res.Samples == 0 {
		t.Error("no phases detected")
	}
	if res.Costs.Detailed != uint64(res.Samples)*cfg.IntervalOps &&
		res.Costs.Detailed > uint64(res.Samples)*cfg.IntervalOps {
		t.Errorf("detailed %d vs %d phases × interval", res.Costs.Detailed, res.Samples)
	}
	if res.ErrorPct() > 25 {
		t.Errorf("online SimPoint error %.2f%%", res.ErrorPct())
	}
}

func TestCostsArithmetic(t *testing.T) {
	c := Costs{Detailed: 1, DetailedWarm: 2, FunctionalWarm: 3, PlainFF: 4}
	if c.DetailedTotal() != 3 || c.Total() != 10 {
		t.Errorf("costs: %+v", c)
	}
	var sum Costs
	sum.Add(c)
	sum.Add(c)
	if sum.Total() != 20 {
		t.Errorf("sum: %+v", sum)
	}
}

func TestResultErrorPct(t *testing.T) {
	r := Result{EstimatedIPC: 1.1, TrueIPC: 1.0}
	if math.Abs(r.ErrorPct()-10) > 1e-9 {
		t.Errorf("error = %g", r.ErrorPct())
	}
	r.TrueIPC = 0
	if !math.IsInf(r.ErrorPct(), 1) {
		t.Error("zero-truth error should be +Inf")
	}
	if (Result{Technique: "X"}).String() == "" {
		t.Error("empty String()")
	}
}

func TestOpsLabel(t *testing.T) {
	cases := map[uint64]string{
		100_000_000: "100M", 10_000_000: "10M", 1_000_000: "1M",
		100_000: "100k", 999: "999",
	}
	for in, want := range cases {
		if got := opsLabel(in); got != want {
			t.Errorf("opsLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

var _ = program.AddrOf // keep the import for helper extensions

func TestStratifiedAccuracyAndThrift(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	cfg := DefaultStratifiedConfig(10)
	cfg.IntervalOps = 100_000
	res, err := Stratified(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 5 {
		t.Errorf("stratified error %.2f%%", res.ErrorPct())
	}
	// The [17] claim: far fewer samples than SMARTS once strata are known.
	sm, err := SMARTS(p, DefaultSMARTSConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples >= sm.Samples {
		t.Errorf("stratified %d samples vs SMARTS %d — stratification saved nothing",
			res.Samples, sm.Samples)
	}
	if res.Phases == 0 {
		t.Error("no strata formed")
	}
	// Checkpointed samples: no warming charged beyond the offline pass.
	if res.Costs.FunctionalWarm != 0 || res.Costs.PlainFF != p.TotalOps {
		t.Errorf("cost ledger wrong: %+v", res.Costs)
	}
}

func TestStratifiedValidation(t *testing.T) {
	p := suiteProfile(t, "177.mesa", 2_000_000)
	bad := DefaultStratifiedConfig(10)
	bad.PilotPerStratum = 1
	if _, err := Stratified(p, bad); err == nil {
		t.Error("pilot=1 accepted")
	}
	bad = DefaultStratifiedConfig(10)
	bad.IntervalOps = 15_000
	if _, err := Stratified(p, bad); err == nil {
		t.Error("unaligned interval accepted")
	}
	bad = DefaultStratifiedConfig(10)
	bad.Eps = 0
	if _, err := Stratified(p, bad); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestStratifiedDeterministic(t *testing.T) {
	p := suiteProfile(t, "256.bzip2", 2_000_000)
	cfg := DefaultStratifiedConfig(10)
	cfg.IntervalOps = 100_000
	r1, err := Stratified(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Stratified(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EstimatedIPC != r2.EstimatedIPC || r1.Samples != r2.Samples {
		t.Error("same seed, different result")
	}
}
