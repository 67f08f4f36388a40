package experiments

import (
	"pgss/internal/core"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/stats"
)

// Extensions evaluates the paper's §7 future-work items implemented in
// this repository against the fixed-parameter baseline on the ten
// benchmarks: the runtime-adaptive controller and the transition guard.
// (The live-point and CMP extensions have their own packages and tests;
// they change the execution substrate rather than the estimate, so they
// are not comparable in this table.)
func Extensions(s *Suite) (*Report, error) {
	r := NewReport("extensions", "§7 future-work extensions vs fixed-parameter PGSS")
	t := r.AddTable("sampling error (%) and mean detailed ops",
		tenHeader([]string{"variant"}, "A-Mean", "detail(A-Mean)")...)

	guardCfg := core.DefaultConfig(s.Scale())
	guardCfg.GuardTransitions = true
	variants := []struct {
		label string
		run   profileRun
	}{
		{"PGSS fixed (1M/.05π)", s.paperRun("PGSS")},
		{"Stratified [17] (oracle strata)", s.paperRun("Stratified")},
		{"PGSS + transition guard", func(p *profile.Profile) (sampling.Result, error) {
			res, _, err := core.RunContext(s.ctx(), sampling.NewProfileTarget(p), guardCfg)
			return res, err
		}},
		{"PGSS adaptive", s.paperRun("PGSS-Adaptive")},
	}
	for _, v := range variants {
		results, err := s.overTen(v.run)
		if err != nil {
			return nil, err
		}
		row := []string{v.label}
		var errs, det []float64
		for _, res := range results {
			errs = append(errs, res.ErrorPct())
			det = append(det, float64(res.Costs.DetailedTotal()))
			row = append(row, pct(res.ErrorPct()))
		}
		row = append(row, pct(stats.Mean(errs)), eng(stats.Mean(det)))
		t.AddRow(row...)
		r.Metrics["err_"+v.label] = stats.Mean(errs)
		r.Metrics["det_"+v.label] = stats.Mean(det)
	}
	r.Notef("the adaptive controller needs no per-benchmark tuning (the paper's §7 goal); the guard discards samples that straddle phase transitions")
	return r, nil
}
