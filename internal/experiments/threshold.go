package experiments

import (
	"fmt"
	"math"

	"pgss/internal/profile"
	"pgss/internal/stats"
)

// changePoint is one consecutive-window observation of the threshold
// analysis: the BBV change (angle, radians) and the IPC change in units of
// the benchmark's interval-IPC standard deviation (Fig 6's axes).
type changePoint struct {
	BBVAngle float64
	IPCSigma float64
}

// changeSeries computes the consecutive-sample changes of one benchmark at
// granularity gran (the paper uses 100k-op samples for Figs 7–9).
func changeSeries(p *profile.Profile, gran uint64) ([]changePoint, error) {
	ipcs, bbvs, err := p.FullWindowSeries(gran)
	if err != nil {
		return nil, err
	}
	sigma, err := p.IntervalStdDev(gran)
	if err != nil {
		return nil, err
	}
	if sigma == 0 {
		sigma = math.Inf(1) // flat benchmark: all IPC changes are 0σ
	}
	var out []changePoint
	for i := 1; i < len(ipcs); i++ {
		out = append(out, changePoint{
			BBVAngle: bbvs[i].Angle(bbvs[i-1]),
			IPCSigma: math.Abs(ipcs[i]-ipcs[i-1]) / sigma,
		})
	}
	return out, nil
}

// analysisGran is the Fig 7–9 sample size (paper: 100k ops).
func analysisGran(s *Suite) uint64 {
	g := 100_000 / s.Scale()
	if g < 10_000 {
		g = 10_000
	}
	return g
}

// Fig7 regenerates Figure 7: the two-dimensional distribution of IPC
// change (in σ units) versus BBV change (angle) between consecutive
// samples across the ten benchmarks, each benchmark weighted equally.
func Fig7(s *Suite) (*Report, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	gran := analysisGran(s)
	r := NewReport("fig7", fmt.Sprintf(
		"2-D distribution of IPC vs BBV changes between %d-op samples, 10 benchmarks", gran))

	const xbins, ybins = 10, 8 // x: BBV change 0..0.5π, y: IPC change 0..0.8σ
	grid := make([][]float64, ybins)
	for y := range grid {
		grid[y] = make([]float64, xbins)
	}
	for _, p := range profiles {
		pts, err := changeSeries(p, gran)
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			continue
		}
		w := 1.0 / float64(len(pts)) // equal benchmark weighting
		for _, pt := range pts {
			x := int(pt.BBVAngle / (0.5 * math.Pi) * xbins)
			if x >= xbins {
				x = xbins - 1
			}
			y := int(pt.IPCSigma / 0.8 * ybins)
			if y >= ybins {
				y = ybins - 1
			}
			grid[y][x] += w
		}
	}
	total := 0.0
	for _, row := range grid {
		for _, v := range row {
			total += v
		}
	}

	t := r.AddTable("share of samples (%), rows = IPC change (σ), cols = BBV change (×π)",
		append([]string{"ipcΔ\\bbvΔ"}, func() []string {
			h := make([]string, xbins)
			for x := range h {
				h[x] = fmt.Sprintf(".%02d–.%02d", x*5, (x+1)*5)
			}
			return h
		}()...)...)
	for y := ybins - 1; y >= 0; y-- {
		row := make([]string, xbins+1)
		row[0] = fmt.Sprintf("%.1f–%.1fσ", float64(y)*0.1, float64(y+1)*0.1)
		for x := 0; x < xbins; x++ {
			row[x+1] = fmt.Sprintf("%.2f", grid[y][x]/total*100)
		}
		t.AddRow(row...)
	}

	// Headline: large IPC changes concentrate at BBV changes above ~.05π.
	var bigIPCLowBBV, bigIPCHighBBV float64
	for y := 2; y < ybins; y++ { // IPC change ≥ 0.2σ
		bigIPCLowBBV += grid[y][0]
		for x := 1; x < xbins; x++ {
			bigIPCHighBBV += grid[y][x]
		}
	}
	if s := bigIPCLowBBV + bigIPCHighBBV; s > 0 {
		r.Metrics["large_ipc_changes_above_.05pi_pct"] = bigIPCHighBBV / s * 100
		r.Notef("%.1f%% of ≥0.2σ IPC changes coincide with BBV changes above .05π (paper: BBV changes >≈.05π typically correspond to large IPC changes)",
			bigIPCHighBBV/s*100)
	}
	return r, nil
}

// thresholdSweep is the x-axis of Figs 8 and 9 (fractions of π).
func thresholdSweep() []float64 {
	var out []float64
	for th := 0.01; th <= 0.50001; th += 0.01 {
		out = append(out, th)
	}
	return out
}

// sigmaLevels are the IPC-change magnitudes of Figs 8 and 9.
func sigmaLevels() []float64 { return []float64{0.1, 0.2, 0.3, 0.4, 0.5} }

// changeSeriesAll precomputes the per-benchmark change series once, so the
// threshold sweeps of Figs 8 and 9 do not recompute them per (th, level)
// point.
func changeSeriesAll(profiles []*profile.Profile, gran uint64) ([][]changePoint, error) {
	out := make([][]changePoint, len(profiles))
	for i, p := range profiles {
		pts, err := changeSeries(p, gran)
		if err != nil {
			return nil, err
		}
		out[i] = pts
	}
	return out, nil
}

// catchRates computes, per benchmark and then averaged, the fraction of
// IPC changes larger than level·σ that a BBV threshold th detects
// (Region 2 / (Region 1 + Region 2) of Fig 6).
func catchRates(series [][]changePoint, th, level float64) float64 {
	var rates []float64
	for _, pts := range series {
		var caught, total float64
		for _, pt := range pts {
			if pt.IPCSigma > level {
				total++
				if pt.BBVAngle > th*math.Pi {
					caught++
				}
			}
		}
		if total > 0 {
			rates = append(rates, caught/total)
		}
	}
	return stats.Mean(rates) * 100
}

// falsePositiveRates computes the fraction of detected phase changes whose
// IPC change is below level·σ (Region 4 / (Region 2 + Region 4)).
func falsePositiveRates(series [][]changePoint, th, level float64) float64 {
	var rates []float64
	for _, pts := range series {
		var falsePos, detected float64
		for _, pt := range pts {
			if pt.BBVAngle > th*math.Pi {
				detected++
				if pt.IPCSigma <= level {
					falsePos++
				}
			}
		}
		if detected > 0 {
			rates = append(rates, falsePos/detected)
		}
	}
	return stats.Mean(rates) * 100
}

// Fig8 regenerates Figure 8: percentage of significant IPC changes caught
// versus BBV threshold, per σ level. The paper reports a knee near .05π.
func Fig8(s *Suite) (*Report, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	gran := analysisGran(s)
	series, err := changeSeriesAll(profiles, gran)
	if err != nil {
		return nil, err
	}
	r := NewReport("fig8", "% of IPC changes caught vs BBV threshold")

	levels := sigmaLevels()
	header := []string{"threshold(×π)"}
	for _, l := range levels {
		header = append(header, fmt.Sprintf(">%.1fσ", l))
	}
	t := r.AddTable("catch rate (%)", header...)
	for _, th := range thresholdSweep() {
		row := []string{f2(th)}
		for _, l := range levels {
			row = append(row, f2(catchRates(series, th, l)))
		}
		t.AddRow(row...)
	}
	r.Metrics["catch_.05pi_.3sigma_pct"] = catchRates(series, 0.05, 0.3)
	r.Metrics["catch_.25pi_.3sigma_pct"] = catchRates(series, 0.25, 0.3)
	r.Notef("catch rate at .05π for >0.3σ changes: %.1f%% (paper: knee in the curve around .05π)",
		r.Metrics["catch_.05pi_.3sigma_pct"])
	return r, nil
}

// Fig9 regenerates Figure 9: percentage of detected phase changes that are
// false positives, versus BBV threshold, per σ level.
func Fig9(s *Suite) (*Report, error) {
	profiles, err := s.PaperTen()
	if err != nil {
		return nil, err
	}
	gran := analysisGran(s)
	series, err := changeSeriesAll(profiles, gran)
	if err != nil {
		return nil, err
	}
	r := NewReport("fig9", "% of detected phase changes that are false positives vs threshold")

	levels := sigmaLevels()
	header := []string{"threshold(×π)"}
	for _, l := range levels {
		header = append(header, fmt.Sprintf("%.1fσ", l))
	}
	t := r.AddTable("false-positive rate (%)", header...)
	for _, th := range thresholdSweep() {
		row := []string{f2(th)}
		for _, l := range levels {
			row = append(row, f2(falsePositiveRates(series, th, l)))
		}
		t.AddRow(row...)
	}
	r.Metrics["falsepos_.05pi_.3sigma_pct"] = falsePositiveRates(series, 0.05, 0.3)
	r.Metrics["falsepos_.30pi_.3sigma_pct"] = falsePositiveRates(series, 0.30, 0.3)
	r.Notef("false positives fall as the threshold rises (paper: set the threshold as high as accuracy allows)")
	return r, nil
}
