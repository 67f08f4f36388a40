package sampling

import (
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/profile"
)

// OnlineSimPointConfig parameterises the online SimPoint variant of
// Pereira et al. (CODES+ISSS 2005) as evaluated in the paper: BBVs are
// classified online into phases with an angle threshold, and the *first
// occurrence* of each phase is simulated in detail for one full interval;
// a perfect phase predictor is assumed (§5), so the first occurrence is
// detailed from its beginning.
type OnlineSimPointConfig struct {
	IntervalOps uint64
	ThresholdPi float64 // threshold as a fraction of π
}

func (c OnlineSimPointConfig) String() string {
	return fmt.Sprintf("%s/.%02dπ", opsLabel(c.IntervalOps), int(c.ThresholdPi*100+0.5))
}

// Validate checks the profile-independent configuration constraints.
func (c OnlineSimPointConfig) Validate() error {
	if c.IntervalOps == 0 {
		return pgsserrors.Invalidf("sampling: online simpoint: zero interval in %+v", c)
	}
	if c.ThresholdPi < 0 || c.ThresholdPi > 0.5 {
		return pgsserrors.Invalidf("sampling: online simpoint: threshold %gπ outside [0, 0.5π]", c.ThresholdPi)
	}
	return nil
}

// OnlineSimPointSweep returns the configurations tested for the baseline:
// interval sizes {10M,100M}/scale × thresholds {.05,.1,.15,.2}π.
func OnlineSimPointSweep(scale uint64) []OnlineSimPointConfig {
	if scale == 0 {
		scale = 1
	}
	var out []OnlineSimPointConfig
	for _, sz := range []uint64{10_000_000 / scale, 100_000_000 / scale} {
		for _, th := range []float64{0.05, 0.10, 0.15, 0.20} {
			out = append(out, OnlineSimPointConfig{IntervalOps: sz, ThresholdPi: th})
		}
	}
	return out
}

// OnlineSimPointOverall is the best overall configuration reported by the
// paper: 100M-op samples with a .1π threshold.
func OnlineSimPointOverall(scale uint64) OnlineSimPointConfig {
	if scale == 0 {
		scale = 1
	}
	return OnlineSimPointConfig{IntervalOps: 100_000_000 / scale, ThresholdPi: 0.10}
}

// OnlineSimPoint runs the baseline against a recorded profile.
func OnlineSimPoint(p *profile.Profile, cfg OnlineSimPointConfig) (Result, error) {
	iv, err := newIntervals(p, "OnlineSimPoint", cfg, cfg.IntervalOps, bbv.ChannelBBV)
	if err != nil {
		return Result{}, err
	}
	vectors, err := p.BBVSeries(cfg.IntervalOps)
	if err != nil {
		return iv.res, err
	}
	if len(vectors) == 0 {
		return iv.res, pgsserrors.Invalidf("sampling: online simpoint: no intervals")
	}
	table := phase.MustNewTable(cfg.ThresholdPi * 3.141592653589793)
	ids := table.ClassifySeries(vectors, cfg.IntervalOps)
	phases := table.Phases()
	firsts := make([]int, len(phases))
	for i, ph := range phases {
		firsts[i] = ph.FirstIntervalIndex
	}
	if err := iv.representatives(ids, firsts); err != nil {
		return iv.res, err
	}
	iv.res.Phases = len(phases)
	// The non-detailed remainder runs in functional-warming fast-forward
	// (the phase tracker needs the BBV stream).
	iv.res.Costs.FunctionalWarm = p.TotalOps - iv.res.Costs.Detailed
	return iv.res, nil
}
