package experiments

import (
	"fmt"
	"math"

	"pgss/internal/phase"
)

// Fig10 regenerates Figure 10: the effect of the BBV threshold on the
// measured phase characteristics of 300.twolf — number of phases, number
// of phase changes, average interval (run) length in ops, and the
// ops-weighted within-phase IPC variation in units of the benchmark's σ.
// The paper's point: raising the threshold collapses the phase count
// quickly while within-phase variation climbs, so the threshold choice
// drives both the detail reduction and the accuracy of PGSS.
func Fig10(s *Suite) (*Report, error) {
	const bench = "300.twolf"
	p, err := s.Profile(bench)
	if err != nil {
		return nil, err
	}
	gran := analysisGran(s)
	sigma, err := p.IntervalStdDev(gran)
	if err != nil {
		return nil, err
	}
	r := NewReport("fig10", fmt.Sprintf("effect of threshold on phase characteristics of %s", bench))
	r.Metrics["benchmark_sigma"] = sigma

	ipcs, bbvs, err := p.FullWindowSeries(gran)
	if err != nil {
		return nil, err
	}

	t := r.AddTable("phase characteristics vs threshold",
		"threshold(×π)", "phases", "transitions", "avg_interval(ops)", "ipc_var(σ)")
	// Paper x-axis: 0 .. π/2 radians, i.e. 0 .. 0.5 in fractions of π.
	for th := 0.0; th <= 0.50001; th += 0.025 {
		table := phase.MustNewTable(th * math.Pi)
		ids := table.ClassifySeries(bbvs, gran)
		varSigma := table.WithinPhaseSigma(ids, ipcs, sigma)
		t.AddRow(f3(th), fmt.Sprintf("%d", table.NumPhases()),
			fmt.Sprintf("%d", table.Transitions),
			eng(table.MeanRunLength()*float64(gran)), f3(varSigma))

		switch {
		case math.Abs(th-0.05) < 1e-9:
			r.Metrics["phases_.05pi"] = float64(table.NumPhases())
			r.Metrics["ipcvar_.05pi_sigma"] = varSigma
		case math.Abs(th-0.25) < 1e-9:
			r.Metrics["phases_.25pi"] = float64(table.NumPhases())
			r.Metrics["ipcvar_.25pi_sigma"] = varSigma
		}
	}
	r.Notef("phase count falls and within-phase IPC variation rises as the threshold grows (paper Fig 10)")
	return r, nil
}
