package sampling

import (
	"fmt"
	"math/rand"

	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/stats"
)

// TurboSMARTSConfig parameterises TurboSMARTS (Wenisch et al., ISPASS
// 2006): the SMARTS sample population is visited in random order, loading
// each sample from a stored checkpoint (live-point), until the normal-theory
// confidence interval on the mean tightens below the requested bound.
type TurboSMARTSConfig struct {
	SMARTS SMARTSConfig
	// Eps is the relative half-width bound (paper: 3%).
	Eps float64
	// Confidence is the two-sided confidence level (paper: 99.7%).
	Confidence float64
	// MinSamples is the floor before the bound is trusted (8, as in the
	// SMARTS n_min discussion).
	MinSamples uint64
	// Seed drives the random visiting order.
	Seed int64
}

// DefaultTurboSMARTSConfig returns the paper's TurboSMARTS setup at the
// given scale.
func DefaultTurboSMARTSConfig(scale uint64) TurboSMARTSConfig {
	return TurboSMARTSConfig{
		SMARTS:     DefaultSMARTSConfig(scale),
		Eps:        0.03,
		Confidence: 0.997,
		MinSamples: 8,
		Seed:       1,
	}
}

func (c TurboSMARTSConfig) String() string {
	return fmt.Sprintf("%s/±%.0f%%@%.1f%%", c.SMARTS, c.Eps*100, c.Confidence*100)
}

// Validate checks the configuration.
func (c TurboSMARTSConfig) Validate() error {
	if err := c.SMARTS.Validate(); err != nil {
		return err
	}
	if c.Eps <= 0 {
		return pgsserrors.Invalidf("sampling: turbosmarts: eps %g", c.Eps)
	}
	return nil
}

// TurboSMARTS replays the live-point population of the profile in random
// order until the confidence bound is met. Because samples come from
// checkpoints, no fast-forwarding of any kind is charged; detailed warm-up
// is still paid per visited sample.
//
// The estimate often misses the requested bound in practice because the
// sample population of a phased program is polymodal, violating the
// single-Gaussian assumption — exactly the failure mode the paper
// demonstrates (§2.2, §5).
func TurboSMARTS(p *profile.Profile, cfg TurboSMARTSConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 2
	}
	// Checkpoints stand in for the pass, so its costs are not charged.
	pop, err := smartsPass(p, cfg.SMARTS, new(Costs))
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Technique: "TurboSMARTS",
		Config:    cfg.String(),
		Benchmark: p.Benchmark,
		TrueIPC:   p.TrueIPC(),
	}
	if len(pop) == 0 {
		return res, pgsserrors.Invalidf("sampling: turbosmarts: empty sample population")
	}
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(len(pop))
	z := stats.ConfidenceZ(cfg.Confidence)
	var acc stats.Running // accumulates CPI, as in SMARTS
	for _, i := range order {
		acc.Add(pop[i])
		res.Samples++
		res.Costs.Detailed += cfg.SMARTS.SampleOps
		res.Costs.DetailedWarm += cfg.SMARTS.WarmOps
		if acc.WithinBound(cfg.Eps, z, cfg.MinSamples) {
			break
		}
	}
	if acc.Mean() > 0 {
		res.EstimatedIPC = 1 / acc.Mean()
	}
	return res, nil
}
