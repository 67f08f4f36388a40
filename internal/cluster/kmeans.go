// Package cluster implements the k-means clustering used by the offline
// SimPoint baseline: k-means++ seeding, Lloyd iterations over BBVs, and the
// representative-selection step (the vector closest to each centroid
// becomes the simulation point for that cluster).
package cluster

import (
	"math"
	"math/rand"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
)

// Result describes one clustering.
type Result struct {
	K          int
	Centroids  []bbv.Vector
	Assignment []int // point index → cluster
	Sizes      []int
	// Representatives[c] is the index of the point closest to centroid c
	// (-1 for an empty cluster).
	Representatives []int
	// Inertia is the summed squared distance of points to their centroid.
	Inertia float64
	// Iterations actually performed.
	Iterations int
}

// Config parameterises KMeans.
type Config struct {
	K        int
	MaxIters int   // default 100
	Seed     int64 // RNG seed for k-means++ (deterministic)
	// Restarts runs the algorithm this many times with derived seeds and
	// keeps the lowest-inertia result (default 1).
	Restarts int
}

// KMeans clusters the points. Points are typically normalised BBVs; the
// metric is Euclidean, as in SimPoint 3.0.
func KMeans(points []bbv.Vector, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, pgsserrors.Invalidf("cluster: k=%d", cfg.K)
	}
	if len(points) == 0 {
		return nil, pgsserrors.Invalidf("cluster: no points")
	}
	if cfg.K > len(points) {
		cfg.K = len(points)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 100
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		res := kmeansOnce(points, cfg.K, cfg.MaxIters, cfg.Seed+int64(r)*7919)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(points []bbv.Vector, k, maxIters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	dim := len(points[0])

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	var iters int
	for iters = 0; iters < maxIters; iters++ {
		moved := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, p := range points {
			c := nearest(p, centroids)
			if c != assign[i] {
				moved = true
				assign[i] = c
			}
			sizes[c]++
		}
		if !moved && iters > 0 {
			break
		}
		// Recompute centroids; empty clusters are reseeded on the farthest
		// point from its centroid.
		next := make([]bbv.Vector, k)
		for c := range next {
			next[c] = make(bbv.Vector, dim)
		}
		for i, p := range points {
			next[assign[i]].Add(p)
		}
		for c := range next {
			if sizes[c] > 0 {
				next[c].Scale(1 / float64(sizes[c]))
			} else {
				next[c] = points[farthest(points, centroids, assign)].Clone()
			}
		}
		centroids = next
	}

	res := &Result{
		K:          k,
		Centroids:  centroids,
		Assignment: assign,
		Sizes:      sizes,
		Iterations: iters,
	}
	res.Representatives = make([]int, k)
	repDist := make([]float64, k)
	for c := range res.Representatives {
		res.Representatives[c] = -1
		repDist[c] = math.Inf(1)
	}
	for i, p := range points {
		c := assign[i]
		d := p.EuclideanDistance(centroids[c])
		res.Inertia += d * d
		if d < repDist[c] {
			repDist[c] = d
			res.Representatives[c] = i
		}
	}
	return res
}

// seedPlusPlus picks k initial centroids with k-means++ (squared-distance
// weighted sampling).
func seedPlusPlus(points []bbv.Vector, k int, rng *rand.Rand) []bbv.Vector {
	centroids := make([]bbv.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var sum float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := p.EuclideanDistance(last)
			dd := d * d
			if len(centroids) == 1 || dd < d2[i] {
				d2[i] = dd
			}
			sum += d2[i]
		}
		if sum == 0 {
			// All points coincide with existing centroids.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		target := rng.Float64() * sum
		idx := 0
		for i, w := range d2 {
			target -= w
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx].Clone())
	}
	return centroids
}

func nearest(p bbv.Vector, centroids []bbv.Vector) int {
	best := 0
	bestD := math.Inf(1)
	for c, ce := range centroids {
		d := p.EuclideanDistance(ce)
		if d < bestD {
			bestD = d
			best = c
		}
	}
	return best
}

func farthest(points []bbv.Vector, centroids []bbv.Vector, assign []int) int {
	best := 0
	bestD := -1.0
	for i, p := range points {
		d := p.EuclideanDistance(centroids[assign[i]])
		if d > bestD {
			bestD = d
			best = i
		}
	}
	return best
}
