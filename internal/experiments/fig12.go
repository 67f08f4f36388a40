package experiments

import (
	"fmt"

	"pgss/internal/core"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/stats"
)

// Fig12 regenerates Figure 12: sampling error and detailed-simulation
// volume for every technique across the ten benchmarks. The paper's
// headline claims checked here:
//   - PGSS error is worse than SMARTS/SimPoint but better than TurboSMARTS;
//   - PGSS needs ~an order of magnitude less detailed simulation than
//     SMARTS and 2–3 orders less than SimPoint.
func Fig12(s *Suite) (*Report, error) {
	scale := s.Scale()
	rows := []struct {
		label string
		run   profileRun
	}{
		{"SMARTS", s.paperRun("SMARTS")},
		{"TurboSMARTS", s.paperRun("TurboSMARTS")},
		{"SimPoint(best)", func(p *profile.Profile) (sampling.Result, error) {
			return sampling.BestOf(sampling.SimPointSweep(scale), func(cfg sampling.SimPointConfig) (sampling.Result, error) {
				return sampling.SimPoint(p, cfg)
			})
		}},
		{"SimPoint(10x100M)", s.paperRun("SimPoint")},
		{"OnlineSP(best)", func(p *profile.Profile) (sampling.Result, error) {
			return sampling.BestOf(sampling.OnlineSimPointSweep(scale), func(cfg sampling.OnlineSimPointConfig) (sampling.Result, error) {
				return sampling.OnlineSimPoint(p, cfg)
			})
		}},
		{"OnlineSP(100M/.1)", s.paperRun("OnlineSimPoint")},
		{"PGSS(best)", func(p *profile.Profile) (sampling.Result, error) {
			return sampling.BestOf(core.Sweep(scale), func(cfg core.Config) (sampling.Result, error) {
				res, _, err := core.RunContext(s.ctx(), sampling.NewProfileTarget(p), cfg)
				return res, err
			})
		}},
		{"PGSS(1M/.05)", s.paperRun("PGSS")},
	}
	runs := make([][]sampling.Result, len(rows))
	for i, row := range rows {
		var err error
		if runs[i], err = s.overTen(row.run); err != nil {
			return nil, fmt.Errorf("fig12: %s on %w", row.label, err)
		}
	}

	r := NewReport("fig12", "sampling error and detailed simulation by technique, 10 benchmarks")
	header := tenHeader([]string{"technique"}, "A-Mean", "G-Mean")
	et := r.AddTable("sampling error (% of benchmark IPC)", header...)
	dt := r.AddTable("detailed simulation (ops, incl. detailed warming)", header...)
	for i, row := range rows {
		errs := make([]float64, len(runs[i]))
		det := make([]float64, len(runs[i]))
		ecells, dcells := []string{row.label}, []string{row.label}
		for j, res := range runs[i] {
			errs[j], det[j] = res.ErrorPct(), float64(res.Costs.DetailedTotal())
			ecells = append(ecells, pct(errs[j]))
			dcells = append(dcells, eng(det[j]))
		}
		am, gm := stats.ArithmeticMean(errs), stats.GeometricMean(errs)
		et.AddRow(append(ecells, pct(am), pct(gm))...)
		dt.AddRow(append(dcells, eng(stats.ArithmeticMean(det)), eng(stats.GeometricMean(det)))...)
		r.Metrics["err_amean_"+row.label] = am
		r.Metrics["det_amean_"+row.label] = stats.ArithmeticMean(det)
	}

	// Headline ratios.
	pgss := r.Metrics["det_amean_PGSS(1M/.05)"]
	if pgss > 0 {
		r.Metrics["detail_ratio_smarts_over_pgss"] = r.Metrics["det_amean_SMARTS"] / pgss
		r.Metrics["detail_ratio_simpoint_over_pgss"] = r.Metrics["det_amean_SimPoint(10x100M)"] / pgss
		r.Metrics["detail_ratio_turbo_over_pgss"] = r.Metrics["det_amean_TurboSMARTS"] / pgss
		r.Notef("detailed-simulation reduction of PGSS(1M/.05): %.1f× vs SMARTS, %.0f× vs SimPoint(10x100M), %.1f× vs TurboSMARTS (paper: ~10×, 100–1000×, >1×)",
			r.Metrics["detail_ratio_smarts_over_pgss"],
			r.Metrics["detail_ratio_simpoint_over_pgss"],
			r.Metrics["detail_ratio_turbo_over_pgss"])
	}
	r.Notef("accuracy ordering (A-mean): SMARTS %.2f%%, SimPoint(best) %.2f%%, PGSS(best) %.2f%%, TurboSMARTS %.2f%%",
		r.Metrics["err_amean_SMARTS"], r.Metrics["err_amean_SimPoint(best)"],
		r.Metrics["err_amean_PGSS(best)"], r.Metrics["err_amean_TurboSMARTS"])
	return r, nil
}
