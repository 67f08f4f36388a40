package experiments

import (
	"fmt"

	"pgss/internal/core"
	"pgss/internal/sampling"
	"pgss/internal/stats"
)

// Fig11 regenerates Figure 11: PGSS sampling error (percent of benchmark
// IPC) for the ten benchmarks across three BBV sampling periods and five
// thresholds, with arithmetic and geometric means. The paper's findings:
// accuracy varies widely with the parameters; 1M ops at .05π is the best
// overall; 179.art and 181.mcf perform poorly at short BBV periods because
// their high-frequency micro-phases straddle sampling windows.
func Fig11(s *Suite) (*Report, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	r := NewReport("fig11", "PGSS sampling error across BBV periods and thresholds")

	configs := core.Sweep(s.Scale())
	header := append([]string{"period", "thresh"}, func() []string {
		h := make([]string, 0, len(profiles)+2)
		for _, p := range profiles {
			h = append(h, shortName(p.Benchmark))
		}
		return append(h, "A-Mean", "G-Mean")
	}()...)
	t := r.AddTable("sampling error (% of benchmark IPC)", header...)

	bestAM := -1.0
	var bestCfg core.Config
	for _, cfg := range configs {
		row := []string{eng(float64(cfg.FFOps)), fmt.Sprintf(".%02dπ", int(cfg.ThresholdPi*100+0.5))}
		var errs []float64
		for _, p := range profiles {
			res, _, err := core.RunContext(s.ctx(), sampling.NewProfileTarget(p), cfg)
			if err != nil {
				return nil, fmt.Errorf("fig11: %s %s: %w", p.Benchmark, cfg, err)
			}
			errs = append(errs, res.ErrorPct())
			row = append(row, pct(res.ErrorPct()))
		}
		am := stats.ArithmeticMean(errs)
		gm := stats.GeometricMean(errs)
		row = append(row, pct(am), pct(gm))
		t.AddRow(row...)
		if bestAM < 0 || am < bestAM {
			bestAM = am
			bestCfg = cfg
		}
		r.Metrics[fmt.Sprintf("amean_ff%d_th%.2f", cfg.FFOps, cfg.ThresholdPi)] = am
	}
	r.Metrics["best_amean_pct"] = bestAM
	r.Metrics["best_ffops"] = float64(bestCfg.FFOps)
	r.Metrics["best_threshold_pi"] = bestCfg.ThresholdPi
	r.Notef("best overall configuration: FF=%d ops, threshold .%02dπ, A-mean error %.2f%% (paper: 1M ops with .05π)",
		bestCfg.FFOps, int(bestCfg.ThresholdPi*100+0.5), bestAM)
	return r, nil
}
