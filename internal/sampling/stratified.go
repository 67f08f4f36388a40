package sampling

import (
	"fmt"
	"math"
	"math/rand"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/profile"
	"pgss/internal/stats"
)

// StratifiedConfig parameterises stratified small-sample simulation
// (Wunderlich et al., WDDD 2004 — reference [17] of the paper, cited as
// showing that "by taking phase behavior into account in the SMARTS
// system, the number of samples needed can be reduced by over forty
// times"). Execution is stratified by an offline phase classification of
// interval BBVs; a pilot round estimates each stratum's CPI variance, and
// the remaining budget is spread by Neyman allocation (n_h ∝ N_h·σ_h).
// Like the paper's online-SimPoint baseline, it assumes the phase profile
// is known before simulation — the very assumption PGSS removes.
type StratifiedConfig struct {
	// IntervalOps is the stratification granularity.
	IntervalOps uint64
	// ThresholdPi is the BBV angle threshold used to form strata.
	ThresholdPi float64
	// WarmOps/SampleOps form the detailed sample, as in SMARTS.
	WarmOps   uint64
	SampleOps uint64
	// PilotPerStratum is the pilot sample count per stratum (default 4).
	PilotPerStratum int
	// Eps/Confidence set the target bound on the overall CPI estimate
	// (defaults 3% at 99.7%).
	Eps        float64
	Confidence float64
	// MaxSamples caps the total sample count (default 10000).
	MaxSamples int
	// Seed drives within-stratum sampling positions.
	Seed int64
}

// DefaultStratifiedConfig returns the [17]-style setup at the given scale.
func DefaultStratifiedConfig(scale uint64) StratifiedConfig {
	if scale == 0 {
		scale = 1
	}
	return StratifiedConfig{
		IntervalOps:     1_000_000 / scale,
		ThresholdPi:     0.05,
		WarmOps:         3000,
		SampleOps:       1000,
		PilotPerStratum: 4,
		Eps:             0.03,
		Confidence:      0.997,
		MaxSamples:      10000,
		Seed:            1,
	}
}

func (c StratifiedConfig) String() string {
	return fmt.Sprintf("%s/.%02dπ", opsLabel(c.IntervalOps), int(c.ThresholdPi*100+0.5))
}

// Validate checks the configuration.
func (c StratifiedConfig) Validate() error {
	if c.IntervalOps == 0 || c.SampleOps == 0 {
		return pgsserrors.Invalidf("sampling: stratified: zero interval or sample in %+v", c)
	}
	if c.WarmOps+c.SampleOps > c.IntervalOps {
		return pgsserrors.Invalidf("sampling: stratified: warm+sample %d exceeds interval %d",
			c.WarmOps+c.SampleOps, c.IntervalOps)
	}
	if c.PilotPerStratum < 2 {
		return pgsserrors.Invalidf("sampling: stratified: pilot %d < 2", c.PilotPerStratum)
	}
	if c.Eps <= 0 {
		return pgsserrors.Invalidf("sampling: stratified: eps %g", c.Eps)
	}
	return nil
}

// Stratified runs stratified random sampling over a recorded profile.
// Samples load from checkpoints, so no fast-forwarding is charged (as with
// TurboSMARTS); the offline BBV classification pass is charged as plain
// fast-forward.
func Stratified(p *profile.Profile, cfg StratifiedConfig) (Result, error) {
	iv, err := newIntervals(p, "Stratified", cfg, cfg.IntervalOps, bbv.ChannelBBV)
	if err != nil {
		return Result{}, err
	}

	// Strata from offline phase classification.
	vectors, err := p.BBVSeries(cfg.IntervalOps)
	if err != nil {
		return iv.res, err
	}
	n := p.NumFullWindows(cfg.IntervalOps)
	if len(vectors) < n {
		n = len(vectors)
	}
	if n == 0 {
		return iv.res, pgsserrors.Invalidf("sampling: stratified: no intervals")
	}
	table := phase.MustNewTable(cfg.ThresholdPi * math.Pi)
	ids := table.ClassifySeries(vectors[:n], cfg.IntervalOps)
	numStrata := table.NumPhases()
	members := make([][]int, numStrata)
	for i := 0; i < n; i++ {
		members[ids[i]] = append(members[ids[i]], i)
	}
	iv.res.Phases = numStrata
	iv.res.Costs.PlainFF = p.TotalOps // the offline classification pass

	rng := rand.New(rand.NewSource(cfg.Seed))
	acc := make([]stats.Running, numStrata)
	// sampleFrom measures a random member interval of stratum h.
	sampleFrom := func(h int) error {
		cpi := iv.sampleCPI(rng, members[h][rng.Intn(len(members[h]))], cfg.WarmOps, cfg.SampleOps)
		if !math.IsNaN(cpi) {
			acc[h].Add(cpi)
		}
		return iv.err
	}

	// Pilot round.
	for h := range members {
		if len(members[h]) == 0 {
			continue
		}
		for i := 0; i < cfg.PilotPerStratum; i++ {
			if err := sampleFrom(h); err != nil {
				return iv.res, err
			}
		}
	}

	// Stratum weights by op count.
	weight := make([]float64, numStrata)
	var totalW float64
	for h, m := range members {
		weight[h] = float64(uint64(len(m)) * cfg.IntervalOps)
		totalW += weight[h]
	}

	estimate := func() (cpi, halfWidth float64) {
		var mean, varSum float64
		for h := range members {
			if acc[h].N() == 0 || weight[h] == 0 {
				continue
			}
			wh := weight[h] / totalW
			mean += wh * acc[h].Mean()
			varSum += wh * wh * acc[h].Variance() / float64(acc[h].N())
		}
		z := stats.ConfidenceZ(cfg.Confidence)
		return mean, z * math.Sqrt(varSum)
	}

	// Neyman allocation until the overall bound is met or the cap hits:
	// each round samples the stratum with the largest remaining
	// contribution W_h·σ_h/√n_h.
	maxSamples := cfg.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 10000
	}
	for int(iv.res.Samples) < maxSamples {
		cpi, hw := estimate()
		if cpi > 0 && hw/cpi <= cfg.Eps {
			break
		}
		best, bestScore := -1, -1.0
		for h := range members {
			if len(members[h]) == 0 {
				continue
			}
			score := weight[h] / totalW * acc[h].StdDev() / math.Sqrt(float64(acc[h].N()))
			if score > bestScore {
				best, bestScore = h, score
			}
		}
		if best < 0 || bestScore == 0 {
			break // every stratum is variance-free
		}
		if err := sampleFrom(best); err != nil {
			return iv.res, err
		}
	}

	cpi, _ := estimate()
	if cpi > 0 {
		iv.res.EstimatedIPC = 1 / cpi
	}
	return iv.res, nil
}
