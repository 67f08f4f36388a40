package experiments

import (
	"fmt"

	"pgss/internal/sampling"
	"pgss/internal/timemodel"
)

// Fig13 regenerates Figure 13: total simulation time over the ten
// benchmarks for SMARTS, SimPoint (10 clusters × 100M ops), online
// SimPoint (100M/.1π) and PGSS-Sim (1M/.05π), priced with the per-mode
// simulation rates the paper measured for its simulator (no
// checkpointing). Each row runs its technique at the paper's overall
// configuration, as the paper shows; Fig 12 adds the best-per-benchmark
// sweeps.
func Fig13(s *Suite) (*Report, error) {
	r := NewReport("fig13", "total simulation time by technique (paper per-mode rates)")
	rates := timemodel.PaperRates()

	rows := []struct {
		figLabel  string
		technique string
	}{
		{"SMARTS", "SMARTS"},
		{"SimPoint", "SimPoint"},
		{"OL SimPoint", "OnlineSimPoint"},
		{"PGSS-Sim", "PGSS"},
	}
	t := r.AddTable("simulation time (seconds, 10 benchmarks summed)",
		"technique", "plain_ff", "functional_warm", "detailed_warm", "detailed", "detailed_total", "total")
	for _, row := range rows {
		results, err := s.overTen(s.paperRun(row.technique))
		if err != nil {
			return nil, fmt.Errorf("fig13: %s on %w", row.technique, err)
		}
		costs := make([]sampling.Costs, len(results))
		for i, res := range results {
			costs[i] = res.Costs
		}
		b := rates.ApplyAll(costs)
		t.AddRow(row.figLabel, f2(b.PlainFFSec), f2(b.FunctionalSec),
			f2(b.DetailedWarmSec), f2(b.DetailedSec), f2(b.DetailedTotal()), f2(b.Total()))
		r.Metrics["total_sec_"+row.figLabel] = b.Total()
		r.Metrics["detailed_sec_"+row.figLabel] = b.DetailedTotal()
	}

	rt := r.AddTable("per-mode simulation rates (paper §6)",
		"mode", "ops/sec")
	rt.AddRow("fast-forward with BBV", eng(rates.PlainFFBBV))
	rt.AddRow("functional fast-forward (warming)", eng(rates.FunctionalWarm))
	rt.AddRow("detailed warming", eng(rates.DetailedWarm))
	rt.AddRow("detailed simulation", eng(rates.Detailed))

	r.Notef("PGSS detailed warming+simulation: %.0f s across the suite (paper: ≈380 s at SPEC scale); totals are dominated by fast-forwarding for every technique, as in the paper",
		r.Metrics["detailed_sec_PGSS-Sim"])
	return r, nil
}
