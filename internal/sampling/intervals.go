package sampling

import (
	"math"
	"math/rand"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// techniqueConfig is what every interval technique's configuration
// provides.
type techniqueConfig interface {
	Validate() error
	String() string
}

// intervals is a profile cut into fixed-size intervals: the population the
// interval techniques (SimPoint, online SimPoint, Stratified, 2PSS, RSS)
// draw from. It places, measures and charges every detailed sample the
// same way for all of them, so they compare at equal detailed budget.
type intervals struct {
	p   *profile.Profile
	ops uint64 // interval size
	res Result // the technique's result, charged as samples are taken
	err error  // the first read error; the technique returns it
}

// newIntervals validates cfg, checks that intervalOps is a multiple of
// p's BBV granularity and that p carries the signatures ch needs, and
// starts technique's Result.
func newIntervals(p *profile.Profile, technique string, cfg techniqueConfig, intervalOps uint64, ch bbv.Channel) (*intervals, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if intervalOps%p.BBVOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"sampling: %s: interval %d not a multiple of BBV granularity %d",
			technique, intervalOps, p.BBVOps)
	}
	if ch.NeedsMAV() && !p.HasMAV() {
		return nil, pgsserrors.Invalidf(
			"sampling: %s: channel %s but profile %q has no MAV channel", technique, ch, p.Benchmark)
	}
	return &intervals{p: p, ops: intervalOps, res: Result{
		Technique: technique,
		Config:    cfg.String(),
		Benchmark: p.Benchmark,
		TrueIPC:   p.TrueIPC(),
	}}, nil
}

// note keeps the first non-nil read error.
func (iv *intervals) note(err error) {
	if err != nil && iv.err == nil {
		iv.err = err
	}
}

// size returns the ops in interval i; the last interval may be short.
func (iv *intervals) size(i int) uint64 {
	start := uint64(i) * iv.ops
	return min(start+iv.ops, iv.p.TotalOps) - start
}

// sampleCPI measures one detailed sample in interval i, loaded from a
// checkpoint: warm ops of detailed warm-up, then sample measured ops, at a
// random FineOps-aligned offset that leaves room for both. It charges the
// sample and returns its CPI, or NaN when the sample has no cycles or
// cannot be read; a read error is kept and the sample is not charged.
func (iv *intervals) sampleCPI(rng *rand.Rand, i int, warm, sample uint64) float64 {
	var off uint64
	if steps := (iv.ops - warm - sample) / iv.p.FineOps; steps > 0 {
		off = uint64(rng.Int63n(int64(steps))) * iv.p.FineOps
	}
	ipc, err := iv.p.IPCWindow(uint64(i)*iv.ops+off+warm, sample)
	if err != nil {
		iv.note(err)
		return math.NaN()
	}
	iv.res.Costs.Detailed += sample
	iv.res.Costs.DetailedWarm += warm
	iv.res.Samples++
	if ipc <= 0 {
		return math.NaN()
	}
	return 1 / ipc
}

// representatives simulates each group's representative interval in
// detail and estimates IPC from them, where groups[i] is interval i's
// group and reps[g] is group g's representative (negative for none). The
// estimate works in CPI space: the whole-program CPI is the op-weighted
// mean of interval CPIs, so each group contributes its representative's
// CPI weighted by the group's ops.
func (iv *intervals) representatives(groups, reps []int) error {
	groupOps := make([]uint64, len(reps))
	for i, g := range groups {
		groupOps[g] += iv.size(i)
	}
	var weightedCPI, totalW float64
	for g, rep := range reps {
		if rep < 0 || groupOps[g] == 0 {
			continue
		}
		// Intervals are multiples of BBVOps ≥ FineOps, so the
		// representative is aligned to the profile's cycle records.
		ipc, err := iv.p.IPCWindow(uint64(rep)*iv.ops, iv.ops)
		if err != nil {
			return err
		}
		if ipc <= 0 {
			continue
		}
		w := float64(groupOps[g])
		weightedCPI += w / ipc
		totalW += w
		iv.res.Costs.Detailed += iv.size(rep)
		iv.res.Samples++
	}
	if totalW > 0 && weightedCPI > 0 {
		iv.res.EstimatedIPC = totalW / weightedCPI
	}
	return nil
}
