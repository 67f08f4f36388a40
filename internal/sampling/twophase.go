package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/profile"
)

// TwoPhaseConfig parameterises two-phase stratified sampling (2PSS,
// Ekman's successor technique to SMARTS-style uniform sampling). Double
// sampling decouples stratification cost from stratification quality:
// phase 1 draws a simple random subset of intervals and classifies them by
// cheap signatures (a *partial* functional pass, unlike Stratified's full
// one); phase 2 measures a within-stratum random subset in detail. The
// estimator Σ_h (n1_h/n1)·ȳ_h is unbiased for the population mean CPI
// because the phase-1 proportions n1_h/n1 are themselves unbiased stratum
// weights.
type TwoPhaseConfig struct {
	// IntervalOps is the stratification granularity.
	IntervalOps uint64
	// ThresholdPi is the signature angle threshold used to form strata.
	ThresholdPi float64
	// Channel selects the stratification signature stream.
	Channel bbv.Channel
	// Phase1Frac is the fraction of intervals signature-classified in
	// phase 1 (0 < f ≤ 1; 1 degenerates to ordinary stratified sampling).
	Phase1Frac float64
	// Samples is the phase-2 detailed measurement budget.
	Samples int
	// WarmOps/SampleOps form each detailed measurement, as in SMARTS.
	WarmOps   uint64
	SampleOps uint64
	// Seed drives phase-1 selection, allocation and sampling positions.
	Seed int64
}

// DefaultTwoPhaseConfig returns the 2PSS setup at the given scale.
func DefaultTwoPhaseConfig(scale uint64) TwoPhaseConfig {
	if scale == 0 {
		scale = 1
	}
	return TwoPhaseConfig{
		IntervalOps: 1_000_000 / scale,
		ThresholdPi: 0.05,
		Phase1Frac:  0.5,
		Samples:     48,
		WarmOps:     3000,
		SampleOps:   1000,
		Seed:        1,
	}
}

func (c TwoPhaseConfig) String() string {
	s := fmt.Sprintf("%s/.%02dπ/n1=%d%%/s=%d",
		opsLabel(c.IntervalOps), int(c.ThresholdPi*100+0.5),
		int(c.Phase1Frac*100+0.5), c.Samples)
	if c.Channel != bbv.ChannelBBV {
		s += "/" + c.Channel.String()
	}
	return s
}

// Validate checks the configuration.
func (c TwoPhaseConfig) Validate() error {
	if c.IntervalOps == 0 || c.SampleOps == 0 {
		return pgsserrors.Invalidf("sampling: 2pss: zero interval or sample in %+v", c)
	}
	if c.WarmOps+c.SampleOps > c.IntervalOps {
		return pgsserrors.Invalidf("sampling: 2pss: warm+sample %d exceeds interval %d",
			c.WarmOps+c.SampleOps, c.IntervalOps)
	}
	if c.ThresholdPi < 0 || c.ThresholdPi > 0.5 {
		return pgsserrors.Invalidf("sampling: 2pss: threshold %gπ outside [0, 0.5π]", c.ThresholdPi)
	}
	if math.IsNaN(c.Phase1Frac) || c.Phase1Frac <= 0 || c.Phase1Frac > 1 {
		return pgsserrors.Invalidf("sampling: 2pss: phase-1 fraction %g outside (0, 1]", c.Phase1Frac)
	}
	if c.Samples < 1 {
		return pgsserrors.Invalidf("sampling: 2pss: sample budget %d < 1", c.Samples)
	}
	return c.Channel.Validate()
}

// TwoPhaseEstimate executes the double-sampling scheme over an abstract
// population of n units: a phase-1 SRS of n1 units is classified by
// stratumOf (cheap), then a phase-2 budget of detailed measure calls is
// allocated proportionally across the observed strata (largest-remainder,
// at least one per stratum when the budget allows) and drawn without
// replacement within each. measure returns a unit's value, or NaN for an
// unmeasurable unit — the budget is still consumed. The estimate is
// Σ_h (n1_h/n1)·ȳ_h over strata with at least one valid measurement
// (weights renormalised when a stratum ends up with none).
//
// Exported separately from the profile-driven TwoPhase so statistical
// property tests can verify unbiasedness and budget conservation on
// synthetic populations with known means.
func TwoPhaseEstimate(rng *rand.Rand, n, n1, budget int, stratumOf func(int) int, measure func(int) float64) (est float64, measured int) {
	if n <= 0 || n1 <= 0 || budget <= 0 {
		return 0, 0
	}
	if n1 > n {
		n1 = n
	}
	// Phase 1: SRS without replacement, classified in ascending unit order
	// (online phase classification is order-dependent; ascending order
	// keeps it deterministic and program-shaped).
	sel := rng.Perm(n)[:n1]
	sort.Ints(sel)
	var strata [][]int
	for _, u := range sel {
		h := stratumOf(u)
		for h >= len(strata) {
			strata = append(strata, nil)
		}
		strata[h] = append(strata[h], u)
	}
	if budget > n1 {
		budget = n1
	}

	// Phase 2 allocation: proportional with largest remainder, a floor of
	// one per nonempty stratum when the budget covers them all, capped at
	// stratum size (sampling is without replacement).
	alloc := make([]int, len(strata))
	type frac struct {
		h   int
		rem float64
	}
	var fracs []frac
	used := 0
	for h, m := range strata {
		if len(m) == 0 {
			continue
		}
		exact := float64(budget) * float64(len(m)) / float64(n1)
		alloc[h] = int(exact)
		if alloc[h] > len(m) {
			alloc[h] = len(m)
		}
		used += alloc[h]
		fracs = append(fracs, frac{h, exact - float64(int(exact))})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].h < fracs[j].h
	})
	for _, f := range fracs { // floor of one per stratum first
		if used >= budget {
			break
		}
		if alloc[f.h] == 0 {
			alloc[f.h]++
			used++
		}
	}
	for used < budget { // then largest remainders, round-robin
		grew := false
		for _, f := range fracs {
			if used >= budget {
				break
			}
			if alloc[f.h] < len(strata[f.h]) {
				alloc[f.h]++
				used++
				grew = true
			}
		}
		if !grew {
			break
		}
	}

	// Phase 2 measurement and the double-sampling estimator.
	var weighted, totalW float64
	for h, m := range strata {
		if alloc[h] == 0 {
			continue
		}
		pick := rng.Perm(len(m))[:alloc[h]]
		sort.Ints(pick)
		var sum float64
		var valid int
		for _, k := range pick {
			y := measure(m[k])
			measured++
			if !math.IsNaN(y) {
				sum += y
				valid++
			}
		}
		if valid == 0 {
			continue
		}
		w := float64(len(m)) / float64(n1)
		weighted += w * sum / float64(valid)
		totalW += w
	}
	if totalW > 0 {
		est = weighted / totalW
	}
	return est, measured
}

// TwoPhase runs two-phase stratified sampling over a recorded profile.
// Phase 1 charges only the selected intervals as plain fast-forward (the
// partial signature pass that distinguishes 2PSS from Stratified's
// whole-program classification); phase-2 measurements load from
// checkpoints, charging detailed warm-up and measurement only.
func TwoPhase(p *profile.Profile, cfg TwoPhaseConfig) (Result, error) {
	iv, err := newIntervals(p, "2PSS", cfg, cfg.IntervalOps, cfg.Channel)
	if err != nil {
		return Result{}, err
	}
	n := p.NumFullWindows(cfg.IntervalOps)
	if n == 0 {
		return iv.res, pgsserrors.Invalidf("sampling: 2pss: no full %d-op intervals", cfg.IntervalOps)
	}
	n1 := int(cfg.Phase1Frac*float64(n) + 0.5)
	if n1 < 2 {
		n1 = 2
	}
	if n1 > n {
		n1 = n
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	table := phase.MustNewTable(cfg.ThresholdPi * math.Pi)
	classified := 0
	stratumOf := func(u int) int {
		sig, err := p.SignatureWindow(cfg.Channel, uint64(u)*cfg.IntervalOps, cfg.IntervalOps)
		iv.note(err)
		if sig == nil {
			sig = make(bbv.Vector, 1)
		}
		ph, _, _ := table.Classify(sig, cfg.IntervalOps, classified)
		classified++
		// Phase-1 signature extraction is the cheap pass: only the selected
		// intervals are functionally fast-forwarded.
		iv.res.Costs.PlainFF += cfg.IntervalOps
		return ph.ID
	}
	measure := func(u int) float64 { return iv.sampleCPI(rng, u, cfg.WarmOps, cfg.SampleOps) }

	cpi, _ := TwoPhaseEstimate(rng, n, n1, cfg.Samples, stratumOf, measure)
	if iv.err != nil {
		return iv.res, iv.err
	}
	iv.res.Phases = table.NumPhases()
	if cpi > 0 {
		iv.res.EstimatedIPC = 1 / cpi
	}
	return iv.res, nil
}
