package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// testSuite builds a small, fast suite shared by the figure tests.
var shared *Suite

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if shared == nil {
		shared = MustNewSuite(Options{
			Scale:    10,
			TotalOps: 20_000_000,
			HashSeed: 42,
			Quiet:    true,
		})
	}
	return shared
}

func TestSuiteProfileCachingInMemory(t *testing.T) {
	s := testSuite(t)
	p1, err := s.Profile("177.mesa")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Profile("177.mesa")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("profile not cached in memory")
	}
}

// TestSuiteDiskCache: a second suite over the same artifact root loads the
// profile the first one published, through the real-disk mmap path.
func TestSuiteDiskCache(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Suite {
		return MustNewSuite(Options{
			Scale: 10, TotalOps: 2_000_000, ArtifactDir: dir, HashSeed: 42, Quiet: true,
		})
	}
	s1 := mk()
	p1, err := s1.Profile("177.mesa")
	if err != nil {
		t.Fatal(err)
	}
	s2 := mk()
	p2, err := s2.Profile("177.mesa")
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalCycles != p2.TotalCycles || p1.TotalOps != p2.TotalOps ||
		len(p1.RawBBVs) != len(p2.RawBBVs) {
		t.Error("artifact store round trip changed the profile")
	}
}

// TestSuiteProfileConcurrentSingleflight: concurrent requests for the same
// missing profile must share one recording.
func TestSuiteProfileConcurrentSingleflight(t *testing.T) {
	s := MustNewSuite(Options{Scale: 10, TotalOps: 1_000_000, HashSeed: 42, Quiet: true})
	const n = 8
	var wg sync.WaitGroup
	got := make([]*profile.Profile, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.Profile("177.mesa")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Error("concurrent callers received different profile instances")
		}
	}
}

// TestSuiteRecordCancelled: a cancelled suite context stops recording with
// a budget-classed error instead of completing the pass.
func TestSuiteRecordCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := MustNewSuite(Options{
		Scale: 10, TotalOps: 2_000_000, HashSeed: 42, Quiet: true, Context: ctx,
	})
	if _, err := s.Profile("177.mesa"); !errors.Is(err, pgsserrors.ErrBudgetExceeded) {
		t.Errorf("cancelled recording: got %v, want ErrBudgetExceeded", err)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Profile("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRegistryAndRun(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != len(Figures) {
		t.Errorf("ids = %v", ids)
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "frontier" || ids[len(ids)-5] != "ablation" {
		t.Errorf("ordering wrong: %v", ids)
	}
	if _, err := Run(testSuite(t), "fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: σ grows as the sampling period shrinks.
	if ratio := r.Metrics["sigma_finest_over_coarsest"]; ratio < 1.5 {
		t.Errorf("fine-grained variation not averaged out at coarse periods: ratio %.2f", ratio)
	}
	checkRender(t, r)
}

func TestFig3(t *testing.T) {
	r, err := Fig3(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["distribution_modes"] < 2 {
		t.Errorf("wupwise distribution unimodal: %g modes", r.Metrics["distribution_modes"])
	}
	checkRender(t, r)
}

func TestFig7(t *testing.T) {
	r, err := Fig7(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Most large IPC changes coincide with BBV changes above .05π.
	if got := r.Metrics["large_ipc_changes_above_.05pi_pct"]; got < 50 {
		t.Errorf("only %.1f%% of large IPC changes had BBV signatures", got)
	}
	checkRender(t, r)
}

func TestFig8CatchRateMonotoneInThreshold(t *testing.T) {
	r, err := Fig8(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Catch rate falls as the threshold rises.
	lo := r.Metrics["catch_.05pi_.3sigma_pct"]
	hi := r.Metrics["catch_.25pi_.3sigma_pct"]
	if lo < hi {
		t.Errorf("catch rate rose with threshold: %.1f%% → %.1f%%", lo, hi)
	}
	if lo < 40 {
		t.Errorf("catch rate at .05π too low: %.1f%%", lo)
	}
	checkRender(t, r)
}

func TestFig9FalsePositivesFallWithThreshold(t *testing.T) {
	r, err := Fig9(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["falsepos_.05pi_.3sigma_pct"] < r.Metrics["falsepos_.30pi_.3sigma_pct"] {
		t.Error("false positives did not fall with rising threshold")
	}
	checkRender(t, r)
}

func TestFig10PhaseCountFalls(t *testing.T) {
	r, err := Fig10(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["phases_.05pi"] < r.Metrics["phases_.25pi"] {
		t.Error("phase count did not fall with threshold")
	}
	checkRender(t, r)
}

func TestFig11ShapesHold(t *testing.T) {
	r, err := Fig11(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["best_amean_pct"] > 10 {
		t.Errorf("best PGSS configuration error %.2f%%", r.Metrics["best_amean_pct"])
	}
	checkRender(t, r)
}

func TestFig12HeadlineClaims(t *testing.T) {
	r, err := Fig12(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// PGSS needs substantially less detailed simulation than SMARTS and
	// SimPoint even at test size.
	if r.Metrics["detail_ratio_smarts_over_pgss"] < 1.5 {
		t.Errorf("SMARTS/PGSS detail ratio %.2f", r.Metrics["detail_ratio_smarts_over_pgss"])
	}
	if r.Metrics["detail_ratio_simpoint_over_pgss"] < 3 {
		t.Errorf("SimPoint/PGSS detail ratio %.2f", r.Metrics["detail_ratio_simpoint_over_pgss"])
	}
	// PGSS(best) must beat TurboSMARTS on accuracy (paper §5).
	if r.Metrics["err_amean_PGSS(best)"] > r.Metrics["err_amean_TurboSMARTS"] {
		t.Errorf("PGSS(best) %.2f%% worse than TurboSMARTS %.2f%%",
			r.Metrics["err_amean_PGSS(best)"], r.Metrics["err_amean_TurboSMARTS"])
	}
	checkRender(t, r)
}

func TestFrontier(t *testing.T) {
	r, err := Frontier(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every grid cell must report a finite non-negative mean error; the
	// equal-budget invariant is checked inside Frontier itself (it errors
	// out on any detailed-budget mismatch across channels).
	for _, tech := range []string{"2PSS", "RSS"} {
		for _, ch := range []bbv.Channel{bbv.ChannelBBV, bbv.ChannelMAV, bbv.ChannelBoth} {
			for _, b := range frontierBenches {
				key := fmt.Sprintf("err_%s_%s_%s", tech, ch, shortName(b))
				e, ok := r.Metrics[key]
				if !ok || math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
					t.Errorf("metric %s = %v (present %v)", key, e, ok)
				}
			}
		}
	}
	// The experiment's reason to exist: a memory channel must beat pure
	// BBVs somewhere on the memory-phase trio.
	if r.Metrics["mav_wins_benchmarks"] < 1 {
		t.Errorf("mav_wins_benchmarks = %v, want >= 1", r.Metrics["mav_wins_benchmarks"])
	}
	checkRender(t, r)
}

func TestFig13TimeModel(t *testing.T) {
	r, err := Fig13(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// PGSS detailed time must be far below SMARTS detailed time.
	if r.Metrics["detailed_sec_PGSS-Sim"] >= r.Metrics["detailed_sec_SMARTS"] {
		t.Error("PGSS detailed time not below SMARTS")
	}
	checkRender(t, r)
}

func checkRender(t *testing.T, r *Report) {
	t.Helper()
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, r.ID) || len(out) < 100 {
		t.Errorf("report rendering too small:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	r, err := Fig2(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := r.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(r.Tables) {
		t.Errorf("wrote %d CSV files for %d tables", len(files), len(r.Tables))
	}
	for _, f := range files {
		if !strings.HasPrefix(f.Name(), "fig2_") || !strings.HasSuffix(f.Name(), ".csv") {
			t.Errorf("bad CSV name %q", f.Name())
		}
	}
}

func TestCoverageStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed TurboSMARTS study")
	}
	r, err := Coverage(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: the nominal 99.7% bound is not met in practice.
	if cov := r.Metrics["turbo_mean_coverage_pct"]; cov > 99.7 {
		t.Errorf("TurboSMARTS coverage %.1f%% — polymodality had no effect?", cov)
	}
	checkRender(t, r)
}

func TestCharacteristics(t *testing.T) {
	r, err := Characteristics(testSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	// The suite's designed IPC ordering must hold.
	if r.Metrics["ipc_mcf"] >= r.Metrics["ipc_twolf"] || r.Metrics["ipc_art"] >= r.Metrics["ipc_twolf"] {
		t.Errorf("art/mcf not the low-IPC pair: %v", r.Metrics)
	}
	if r.Metrics["ipc_mesa"] < 1.0 {
		t.Errorf("mesa IPC %g", r.Metrics["ipc_mesa"])
	}
	checkRender(t, r)
}
