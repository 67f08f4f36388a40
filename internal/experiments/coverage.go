package experiments

import (
	"fmt"

	"pgss/internal/stats"
)

// Coverage quantifies the paper's §5 claim about TurboSMARTS: "The bounds
// used in this experiment were 3% accuracy with 99.7 confidence. However,
// this assumes a Gaussian distribution of samples, which is not the case
// with most programs. As such, the absolute error typically falls well
// outside these bounds, as it did in most of our experiments."
//
// For every benchmark, TurboSMARTS runs with many random visiting orders;
// the empirical coverage is the fraction of runs whose true error stays
// within the claimed ±3% bound. A sound 99.7% procedure would cover ≈99.7%
// of runs; polymodal sample populations break the single-Gaussian variance
// estimate and drive coverage below that. PGSS's per-phase bounds are
// evaluated the same way for contrast (one deterministic run per seed
// varies nothing in PGSS, so its line reports the per-benchmark pass/fail
// of the same ±3% target instead).
func Coverage(s *Suite) (*Report, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	r := NewReport("coverage", "empirical coverage of the ±3% @ 99.7% confidence bound")
	const seeds = 40

	t := r.AddTable("TurboSMARTS bound coverage per benchmark",
		"benchmark", "runs_within_3%", "coverage", "worst_error", "median_samples")
	var coverages []float64
	for _, p := range profiles {
		within := 0
		var worst float64
		var sampleCounts []float64
		for seed := int64(1); seed <= seeds; seed++ {
			res, err := s.runTechnique(s.ctx(), "TurboSMARTS", p, seed)
			if err != nil {
				return nil, err
			}
			if res.ErrorPct() <= 3 {
				within++
			}
			if res.ErrorPct() > worst {
				worst = res.ErrorPct()
			}
			sampleCounts = append(sampleCounts, float64(res.Samples))
		}
		cov := float64(within) / seeds * 100
		coverages = append(coverages, cov)
		t.AddRow(shortName(p.Benchmark), fmt.Sprintf("%d/%d", within, seeds),
			pct(cov), pct(worst), f2(stats.Percentile(sampleCounts, 50)))
	}
	r.Metrics["turbo_mean_coverage_pct"] = stats.Mean(coverages)

	// PGSS at the overall configuration: deterministic, so the comparable
	// statement is whether each benchmark's single run meets the same
	// target the per-phase bounds aim at.
	pt := r.AddTable("PGSS (1M/.05π) error vs the same ±3% target",
		"benchmark", "error", "within_3%")
	results, err := s.overTen(s.paperRun("PGSS"))
	if err != nil {
		return nil, err
	}
	pgssWithin := 0
	for _, res := range results {
		ok := "no"
		if res.ErrorPct() <= 3 {
			ok = "yes"
			pgssWithin++
		}
		pt.AddRow(shortName(res.Benchmark), pct(res.ErrorPct()), ok)
	}
	r.Metrics["pgss_within_3pct_of_10"] = float64(pgssWithin)
	r.Notef("TurboSMARTS' nominal 99.7%% bound covers only %.1f%% of runs on average (paper: errors fall 'well outside these bounds'); PGSS meets the same target on %d/10 benchmarks deterministically",
		r.Metrics["turbo_mean_coverage_pct"], pgssWithin)
	return r, nil
}
