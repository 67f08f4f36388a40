package sampling

import (
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/cluster"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// SimPointConfig parameterises offline SimPoint (Sherwood et al., ASPLOS
// 2002; Hamerly et al. 2005): the run is cut into fixed-size intervals, the
// interval BBVs are clustered with k-means, and the interval closest to
// each centroid is simulated in detail with the cluster's weight.
type SimPointConfig struct {
	IntervalOps uint64 // interval (sample) size
	K           int    // cluster count
	Seed        int64  // k-means seed
}

// simPointRestarts is how many k-means restarts SimPoint keeps the best of.
const simPointRestarts = 3

func (c SimPointConfig) String() string {
	return fmt.Sprintf("%dx%s", c.K, opsLabel(c.IntervalOps))
}

// Validate checks the profile-independent configuration constraints.
// Alignment against a specific profile's BBV granularity is checked by
// SimPoint itself.
func (c SimPointConfig) Validate() error {
	if c.IntervalOps == 0 {
		return pgsserrors.Invalidf("sampling: simpoint: zero interval in %+v", c)
	}
	if c.K <= 0 {
		return pgsserrors.Invalidf("sampling: simpoint: k=%d", c.K)
	}
	return nil
}

// opsLabel renders op counts as the paper does (100M, 10M, 1M, 100k).
func opsLabel(ops uint64) string {
	switch {
	case ops >= 1_000_000 && ops%1_000_000 == 0:
		return fmt.Sprintf("%dM", ops/1_000_000)
	case ops >= 1_000 && ops%1_000 == 0:
		return fmt.Sprintf("%dk", ops/1_000)
	default:
		return fmt.Sprintf("%d", ops)
	}
}

// SimPointSweep returns the paper's eleven SimPoint configurations at the
// given scale: interval sizes {1M,10M,100M}/scale each with k∈{5,10,20},
// plus 30 clusters of 10M/scale and 300 clusters of 1M/scale (§5).
func SimPointSweep(scale uint64) []SimPointConfig {
	if scale == 0 {
		scale = 1
	}
	sizes := []uint64{1_000_000 / scale, 10_000_000 / scale, 100_000_000 / scale}
	var out []SimPointConfig
	for _, sz := range sizes {
		for _, k := range []int{5, 10, 20} {
			out = append(out, SimPointConfig{IntervalOps: sz, K: k, Seed: 1})
		}
	}
	out = append(out,
		SimPointConfig{IntervalOps: 10_000_000 / scale, K: 30, Seed: 1},
		SimPointConfig{IntervalOps: 1_000_000 / scale, K: 300, Seed: 1},
	)
	return out
}

// SimPointOverall returns the configuration the paper found best overall:
// ten clusters of 100M-op intervals.
func SimPointOverall(scale uint64) SimPointConfig {
	if scale == 0 {
		scale = 1
	}
	return SimPointConfig{IntervalOps: 100_000_000 / scale, K: 10, Seed: 1}
}

// SimPoint runs the offline technique against a recorded profile. The BBV
// collection pass over the whole program is charged as plain fast-forward
// (SimPoint's profiling run does not warm microarchitectural state); the
// representative of each cluster is charged as detailed simulation.
func SimPoint(p *profile.Profile, cfg SimPointConfig) (Result, error) {
	iv, err := newIntervals(p, "SimPoint", cfg, cfg.IntervalOps, bbv.ChannelBBV)
	if err != nil {
		return Result{}, err
	}
	vectors, err := p.BBVSeries(cfg.IntervalOps)
	if err != nil {
		return iv.res, err
	}
	if len(vectors) == 0 {
		return iv.res, pgsserrors.Invalidf("sampling: simpoint: no intervals (program of %d ops, interval %d)",
			p.TotalOps, cfg.IntervalOps)
	}
	cl, err := cluster.KMeans(vectors, cluster.Config{K: cfg.K, Seed: cfg.Seed, Restarts: simPointRestarts})
	if err != nil {
		return iv.res, err
	}
	if err := iv.representatives(cl.Assignment, cl.Representatives); err != nil {
		return iv.res, err
	}
	iv.res.Phases = cl.K
	iv.res.Costs.PlainFF = p.TotalOps // the offline BBV profiling pass
	return iv.res, nil
}
