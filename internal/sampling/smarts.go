package sampling

import (
	"fmt"
	"math"

	"pgss/internal/pgsserrors"
	"pgss/internal/stats"
)

// SMARTSConfig parameterises SMARTS systematic sampling (Wunderlich et al.,
// ISCA 2003): every PeriodOps of execution begins with WarmOps of detailed
// warm-up followed by SampleOps of measured detailed simulation; the
// remainder of the period runs in functional-warming fast-forward.
type SMARTSConfig struct {
	PeriodOps uint64 // U, the sampling period (paper: 1M ops)
	WarmOps   uint64 // detailed warm-up (paper: 3k ops)
	SampleOps uint64 // measured sample (paper: 1k ops)
}

// DefaultSMARTSConfig returns the paper's SMARTS parameters scaled by
// scale (scale=1 reproduces the paper's absolute values; window sizes
// divide by scale, sample sizes stay absolute).
func DefaultSMARTSConfig(scale uint64) SMARTSConfig {
	if scale == 0 {
		scale = 1
	}
	return SMARTSConfig{PeriodOps: 1_000_000 / scale, WarmOps: 3000, SampleOps: 1000}
}

func (c SMARTSConfig) String() string {
	return fmt.Sprintf("U=%d/w=%d/s=%d", c.PeriodOps, c.WarmOps, c.SampleOps)
}

// Validate checks the configuration.
func (c SMARTSConfig) Validate() error {
	if c.PeriodOps == 0 || c.SampleOps == 0 {
		return pgsserrors.Invalidf("sampling: smarts: zero period or sample in %+v", c)
	}
	if c.WarmOps+c.SampleOps > c.PeriodOps {
		return pgsserrors.Invalidf("sampling: smarts: warm+sample %d exceeds period %d",
			c.WarmOps+c.SampleOps, c.PeriodOps)
	}
	return nil
}

// SMARTS runs systematic small-sample simulation over the target. As in
// the original SMARTS, the estimator works in CPI: sampling positions are
// uniform in instruction count, which makes the mean of sample CPIs an
// unbiased estimator of total cycles / total instructions; whole-program
// IPC is its reciprocal. (Averaging sample IPCs directly would be biased
// high on any benchmark whose IPC varies.)
func SMARTS(t Target, cfg SMARTSConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{
		Technique: "SMARTS",
		Config:    cfg.String(),
		Benchmark: t.Benchmark(),
		TrueIPC:   t.TrueIPC(),
	}
	cpis, err := smartsPass(t, cfg, &res.Costs)
	res.Samples = uint64(len(cpis))
	if err != nil {
		return res, err
	}
	var acc stats.Running
	for _, cpi := range cpis {
		acc.Add(cpi)
	}
	if acc.Mean() > 0 {
		res.EstimatedIPC = 1 / acc.Mean()
	}
	return res, nil
}

// smartsPass walks the SMARTS schedule over the target, charging each
// window's costs to costs, and returns the sample CPIs in program order:
// the population SMARTS averages and TurboSMARTS draws from.
func smartsPass(t Target, cfg SMARTSConfig, costs *Costs) ([]float64, error) {
	var cpis []float64
	for {
		w, ok := t.NextWindow(cfg.PeriodOps, cfg.WarmOps, cfg.SampleOps)
		if !ok {
			break
		}
		costs.Detailed += w.SampleOps
		costs.DetailedWarm += w.WarmOps
		costs.FunctionalWarm += w.Ops - w.SampleOps - w.WarmOps
		if !math.IsNaN(w.SampleIPC) && w.SampleIPC > 0 {
			cpis = append(cpis, 1/w.SampleIPC)
		}
	}
	return cpis, t.Err()
}
