package sampling

import (
	"fmt"

	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
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

// SMARTS runs systematic small-sample simulation over the profile. As in
// the original SMARTS, the estimator works in CPI: sampling positions are
// uniform in instruction count, which makes the mean of sample CPIs an
// unbiased estimator of total cycles / total instructions; whole-program
// IPC is its reciprocal. (Averaging sample IPCs directly would be biased
// high on any benchmark whose IPC varies.)
func SMARTS(p *profile.Profile, cfg SMARTSConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{
		Technique: "SMARTS",
		Config:    cfg.String(),
		Benchmark: p.Benchmark,
		TrueIPC:   p.TrueIPC(),
	}
	cpis, err := smartsPass(p, cfg, &res.Costs)
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

// smartsPass walks the SMARTS schedule over the profile's recorded cycles,
// whose granularity its sizes must align to, charging each period's costs
// to costs, and returns the sample CPIs in program order: the population
// SMARTS averages and TurboSMARTS draws from. A period without a measured
// sample runs wholly in functional warming.
func smartsPass(p *profile.Profile, cfg SMARTSConfig, costs *Costs) ([]float64, error) {
	if cfg.PeriodOps%p.FineOps != 0 || cfg.WarmOps%p.FineOps != 0 || cfg.SampleOps%p.FineOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"sampling: smarts: period %d / warm %d / sample %d not multiples of fine granularity %d",
			cfg.PeriodOps, cfg.WarmOps, cfg.SampleOps, p.FineOps)
	}
	var cpis []float64
	for pos := uint64(0); pos < p.TotalOps; pos += cfg.PeriodOps {
		ops := min(cfg.PeriodOps, p.TotalOps-pos)
		if cfg.WarmOps+cfg.SampleOps <= ops {
			ipc, err := p.IPCWindow(pos+cfg.WarmOps, cfg.SampleOps)
			if err != nil {
				return cpis, err
			}
			if ipc > 0 {
				costs.Detailed += cfg.SampleOps
				costs.DetailedWarm += cfg.WarmOps
				ops -= cfg.WarmOps + cfg.SampleOps
				cpis = append(cpis, 1/ipc)
			}
		}
		costs.FunctionalWarm += ops
	}
	return cpis, nil
}
