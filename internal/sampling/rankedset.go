package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// RankedSetConfig parameterises ranked set sampling with repeated
// subsampling (RSS). Each cycle draws, for every rank r ∈ 1..SetSize, a
// fresh random set of SetSize intervals, ranks the set by a cheap
// concomitant (no detailed simulation), and measures only the r-th ranked
// interval in detail. Over a cycle the measured units are order statistics
// of disjoint random sets, which partition the population — so the cycle
// mean is unbiased for the population mean under *any* judgment ranking,
// while a ranking correlated with CPI spreads each cycle's measurements
// across the CPI distribution and cuts the estimator's variance below SRS.
// Repeated subsampling (Cycles independent cycles) yields a variance
// estimate s²(cycle means)/Cycles that shrinks as 1/Cycles.
type RankedSetConfig struct {
	// IntervalOps is the sampling-unit granularity.
	IntervalOps uint64
	// SetSize is the ranked set size m (m² intervals ranked, m measured,
	// per cycle).
	SetSize int
	// Cycles is the number of repeated subsamples.
	Cycles int
	// Channel selects the concomitant: MAV or concatenated channels rank
	// by memory-access density (accesses per op — the memory-boundedness
	// proxy), the BBV channel by code dispersion (how spread the
	// interval's normalised BBV is across registers).
	Channel bbv.Channel
	// WarmOps/SampleOps form each detailed measurement, as in SMARTS.
	WarmOps   uint64
	SampleOps uint64
	// Seed drives set draws and sampling positions.
	Seed int64
}

// DefaultRankedSetConfig returns the RSS setup at the given scale.
func DefaultRankedSetConfig(scale uint64) RankedSetConfig {
	if scale == 0 {
		scale = 1
	}
	return RankedSetConfig{
		IntervalOps: 1_000_000 / scale,
		SetSize:     4,
		Cycles:      12,
		WarmOps:     3000,
		SampleOps:   1000,
		Seed:        1,
	}
}

func (c RankedSetConfig) String() string {
	s := fmt.Sprintf("%s/m=%d/c=%d", opsLabel(c.IntervalOps), c.SetSize, c.Cycles)
	if c.Channel != bbv.ChannelBBV {
		s += "/" + c.Channel.String()
	}
	return s
}

// Validate checks the configuration.
func (c RankedSetConfig) Validate() error {
	if c.IntervalOps == 0 || c.SampleOps == 0 {
		return pgsserrors.Invalidf("sampling: rss: zero interval or sample in %+v", c)
	}
	if c.WarmOps+c.SampleOps > c.IntervalOps {
		return pgsserrors.Invalidf("sampling: rss: warm+sample %d exceeds interval %d",
			c.WarmOps+c.SampleOps, c.IntervalOps)
	}
	if c.SetSize < 2 {
		return pgsserrors.Invalidf("sampling: rss: set size %d < 2", c.SetSize)
	}
	if c.Cycles < 2 {
		return pgsserrors.Invalidf("sampling: rss: %d cycles < 2 (repeated subsampling needs ≥ 2)", c.Cycles)
	}
	return c.Channel.Validate()
}

// RankedSetEstimate executes ranked set sampling with repeated subsampling
// over an abstract population of n units. rankKey returns a unit's cheap
// concomitant; measure returns its value, or NaN for an unmeasurable unit
// (the measurement is still spent). It returns the estimate (mean of cycle
// means), the repeated-subsampling variance estimate s²(cycle means)/cycles,
// and the number of measure calls.
//
// Exported separately from the profile-driven RankedSet so statistical
// property tests can verify unbiasedness and the 1/cycles variance decay
// on synthetic populations with known moments.
func RankedSetEstimate(rng *rand.Rand, n, setSize, cycles int, rankKey func(int) float64, measure func(int) float64) (est, variance float64, measured int) {
	if n <= 0 || setSize <= 0 || cycles <= 0 {
		return 0, 0, 0
	}
	m := setSize
	if m > n {
		m = n
	}
	var cycleMeans []float64
	set := make([]int, m)
	for c := 0; c < cycles; c++ {
		var sum float64
		var valid int
		for r := 0; r < m; r++ {
			// Fresh random set for every rank (with replacement across
			// sets — the standard RSS design).
			perm := rng.Perm(n)
			copy(set, perm[:m])
			// Judgment-rank by the concomitant, ties broken by unit index
			// for determinism.
			sort.Slice(set, func(i, j int) bool {
				ki, kj := rankKey(set[i]), rankKey(set[j])
				if ki != kj {
					return ki < kj
				}
				return set[i] < set[j]
			})
			y := measure(set[r])
			measured++
			if !math.IsNaN(y) {
				sum += y
				valid++
			}
		}
		if valid > 0 {
			cycleMeans = append(cycleMeans, sum/float64(valid))
		}
	}
	if len(cycleMeans) == 0 {
		return 0, 0, measured
	}
	for _, x := range cycleMeans {
		est += x
	}
	est /= float64(len(cycleMeans))
	if len(cycleMeans) > 1 {
		var m2 float64
		for _, x := range cycleMeans {
			d := x - est
			m2 += d * d
		}
		variance = m2 / float64(len(cycleMeans)-1) / float64(len(cycleMeans))
	}
	return est, variance, measured
}

// RankedSet runs ranked set sampling over a recorded profile. Every
// interval inspected for ranking is charged one interval of plain
// fast-forward (the cheap concomitant pass); detailed warm-up and
// measurement are charged only for the m·Cycles measured intervals.
func RankedSet(p *profile.Profile, cfg RankedSetConfig) (Result, error) {
	iv, err := newIntervals(p, "RSS", cfg, cfg.IntervalOps, cfg.Channel)
	if err != nil {
		return Result{}, err
	}
	n := p.NumFullWindows(cfg.IntervalOps)
	if n == 0 {
		return iv.res, pgsserrors.Invalidf("sampling: rss: no full %d-op intervals", cfg.IntervalOps)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// The concomitant, memoised per interval: ranking is a pure function
	// of the interval, and an interval redrawn into a later set pays its
	// fast-forward only once.
	keys := make([]float64, n)
	haveKey := make([]bool, n)
	rankKey := func(u int) float64 {
		if haveKey[u] {
			return keys[u]
		}
		haveKey[u] = true
		iv.res.Costs.PlainFF += cfg.IntervalOps
		start := uint64(u) * cfg.IntervalOps
		var key float64
		if cfg.Channel.NeedsMAV() {
			// Memory-access density: accesses per op, the cheap
			// memory-boundedness proxy MAVs make available.
			raw, err := p.MAVWindow(start, cfg.IntervalOps)
			iv.note(err)
			var accesses float64
			for _, x := range raw {
				accesses += x
			}
			key = accesses / float64(cfg.IntervalOps)
		} else {
			// Code dispersion: 1 − max component of the normalised BBV.
			// Tight-loop intervals concentrate in few registers (low
			// dispersion, typically low CPI); sprawling code spreads out.
			// Purely local, so no whole-program pass is charged.
			sig, err := p.SignatureWindow(bbv.ChannelBBV, start, cfg.IntervalOps)
			iv.note(err)
			var max float64
			for _, x := range sig {
				if x > max {
					max = x
				}
			}
			key = 1 - max
		}
		keys[u] = key
		return key
	}
	measure := func(u int) float64 { return iv.sampleCPI(rng, u, cfg.WarmOps, cfg.SampleOps) }

	cpi, _, _ := RankedSetEstimate(rng, n, cfg.SetSize, cfg.Cycles, rankKey, measure)
	if iv.err != nil {
		return iv.res, iv.err
	}
	if cpi > 0 {
		iv.res.EstimatedIPC = 1 / cpi
	}
	return iv.res, nil
}
