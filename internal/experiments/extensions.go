package experiments

import (
	"pgss/internal/core"
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
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	r := NewReport("extensions", "§7 future-work extensions vs fixed-parameter PGSS")

	header := append([]string{"variant"}, func() []string {
		h := make([]string, 0, len(profiles)+2)
		for _, p := range profiles {
			h = append(h, shortName(p.Benchmark))
		}
		return append(h, "A-Mean", "detail(A-Mean)")
	}()...)
	t := r.AddTable("sampling error (%) and mean detailed ops", header...)

	type variant struct {
		label string
		run   func(tgt sampling.Target) (sampling.Result, error)
	}
	scale := s.Scale()
	fixedCfg := core.DefaultConfig(scale)
	guardCfg := fixedCfg
	guardCfg.GuardTransitions = true
	adaptiveCfg := core.DefaultAdaptiveConfig(scale)

	stratCfg := sampling.DefaultStratifiedConfig(scale)
	variants := []variant{
		{"PGSS fixed (1M/.05π)", func(tgt sampling.Target) (sampling.Result, error) {
			res, _, err := core.RunContext(s.ctx(), tgt, fixedCfg)
			return res, err
		}},
		{"Stratified [17] (oracle strata)", func(tgt sampling.Target) (sampling.Result, error) {
			pt, ok := tgt.(*sampling.ProfileTarget)
			if !ok {
				return sampling.Result{}, nil
			}
			return sampling.Stratified(pt.Profile(), stratCfg)
		}},
		{"PGSS + transition guard", func(tgt sampling.Target) (sampling.Result, error) {
			res, _, err := core.RunContext(s.ctx(), tgt, guardCfg)
			return res, err
		}},
		{"PGSS adaptive", func(tgt sampling.Target) (sampling.Result, error) {
			res, _, err := core.RunAdaptive(s.ctx(), tgt, adaptiveCfg)
			return res, err
		}},
	}
	for _, v := range variants {
		row := []string{v.label}
		var errs, det []float64
		for _, p := range profiles {
			res, err := v.run(sampling.NewProfileTarget(p))
			if err != nil {
				return nil, err
			}
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
