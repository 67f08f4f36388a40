package experiments

import (
	"fmt"

	"pgss/internal/core"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/stats"
)

// techniqueRuns holds one technique's results across the ten benchmarks.
type techniqueRuns struct {
	label   string
	results []sampling.Result
}

func (t *techniqueRuns) errors() []float64 {
	out := make([]float64, len(t.results))
	for i, r := range t.results {
		out[i] = r.ErrorPct()
	}
	return out
}

func (t *techniqueRuns) detailed() []float64 {
	out := make([]float64, len(t.results))
	for i, r := range t.results {
		out[i] = float64(r.Costs.DetailedTotal())
	}
	return out
}

// Fig12Data is the structured outcome of the Fig 12 comparison, reused by
// Fig 13's time model and by tests.
type Fig12Data struct {
	Techniques []*techniqueRuns
}

// ByLabel returns the runs of one technique.
func (d *Fig12Data) ByLabel(label string) *techniqueRuns {
	for _, t := range d.Techniques {
		if t.label == label {
			return t
		}
	}
	return nil
}

// runFig12 executes all eight technique configurations of Figure 12 over
// the ten benchmarks.
func runFig12(s *Suite) (*Fig12Data, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	scale := s.Scale()
	d := &Fig12Data{}
	add := func(label string, run func(p *profile.Profile) (sampling.Result, error)) error {
		tr := &techniqueRuns{label: label}
		for _, p := range profiles {
			res, err := run(p)
			if err != nil {
				return fmt.Errorf("fig12: %s on %s: %w", label, p.Benchmark, err)
			}
			tr.results = append(tr.results, res)
		}
		d.Techniques = append(d.Techniques, tr)
		return nil
	}

	smartsCfg := sampling.DefaultSMARTSConfig(scale)
	if err := add("SMARTS", func(p *profile.Profile) (sampling.Result, error) {
		return sampling.SMARTS(sampling.NewProfileTarget(p), smartsCfg)
	}); err != nil {
		return nil, err
	}
	if err := add("TurboSMARTS", func(p *profile.Profile) (sampling.Result, error) {
		return sampling.TurboSMARTS(p, sampling.DefaultTurboSMARTSConfig(scale))
	}); err != nil {
		return nil, err
	}
	spSweep := sampling.SimPointSweep(scale)
	if err := add("SimPoint(best)", func(p *profile.Profile) (sampling.Result, error) {
		best, _, err := sampling.SimPointBest(p, spSweep)
		return best, err
	}); err != nil {
		return nil, err
	}
	spOverall := sampling.SimPointOverall(scale)
	if err := add("SimPoint(10x100M)", func(p *profile.Profile) (sampling.Result, error) {
		return sampling.SimPoint(p, spOverall)
	}); err != nil {
		return nil, err
	}
	ospSweep := sampling.OnlineSimPointSweep(scale)
	if err := add("OnlineSP(best)", func(p *profile.Profile) (sampling.Result, error) {
		best, _, err := sampling.OnlineSimPointBest(p, ospSweep)
		return best, err
	}); err != nil {
		return nil, err
	}
	ospOverall := sampling.OnlineSimPointOverall(scale)
	if err := add("OnlineSP(100M/.1)", func(p *profile.Profile) (sampling.Result, error) {
		return sampling.OnlineSimPoint(p, ospOverall)
	}); err != nil {
		return nil, err
	}
	pgssSweep := core.Sweep(scale)
	if err := add("PGSS(best)", func(p *profile.Profile) (sampling.Result, error) {
		best, _, err := core.Best(s.ctx(), func() sampling.Target { return sampling.NewProfileTarget(p) }, pgssSweep)
		return best, err
	}); err != nil {
		return nil, err
	}
	pgssOverall := core.DefaultConfig(scale)
	if err := add("PGSS(1M/.05)", func(p *profile.Profile) (sampling.Result, error) {
		res, _, err := core.RunContext(s.ctx(), sampling.NewProfileTarget(p), pgssOverall)
		return res, err
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Fig12 regenerates Figure 12: sampling error and detailed-simulation
// volume for every technique across the ten benchmarks. The paper's
// headline claims checked here:
//   - PGSS error is worse than SMARTS/SimPoint but better than TurboSMARTS;
//   - PGSS needs ~an order of magnitude less detailed simulation than
//     SMARTS and 2–3 orders less than SimPoint.
func Fig12(s *Suite) (*Report, error) {
	d, err := runFig12(s)
	if err != nil {
		return nil, err
	}
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	r := NewReport("fig12", "sampling error and detailed simulation by technique, 10 benchmarks")

	header := append([]string{"technique"}, func() []string {
		h := make([]string, 0, len(profiles)+2)
		for _, p := range profiles {
			h = append(h, shortName(p.Benchmark))
		}
		return append(h, "A-Mean", "G-Mean")
	}()...)

	et := r.AddTable("sampling error (% of benchmark IPC)", header...)
	for _, tr := range d.Techniques {
		row := []string{tr.label}
		for _, res := range tr.results {
			row = append(row, pct(res.ErrorPct()))
		}
		errs := tr.errors()
		am, gm := stats.ArithmeticMean(errs), stats.GeometricMean(errs)
		row = append(row, pct(am), pct(gm))
		et.AddRow(row...)
		r.Metrics["err_amean_"+tr.label] = am
	}

	dt := r.AddTable("detailed simulation (ops, incl. detailed warming)", header...)
	for _, tr := range d.Techniques {
		row := []string{tr.label}
		for _, res := range tr.results {
			row = append(row, eng(float64(res.Costs.DetailedTotal())))
		}
		det := tr.detailed()
		row = append(row, eng(stats.ArithmeticMean(det)), eng(stats.GeometricMean(det)))
		dt.AddRow(row...)
		r.Metrics["det_amean_"+tr.label] = stats.ArithmeticMean(det)
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
