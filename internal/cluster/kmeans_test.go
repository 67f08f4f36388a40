package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgss/internal/bbv"
)

// blob generates n noisy points around a one-hot centre.
func blob(rng *rand.Rand, centre, n int) []bbv.Vector {
	var out []bbv.Vector
	for i := 0; i < n; i++ {
		v := make(bbv.Vector, 16)
		v[centre] = 1
		for j := range v {
			v[j] += rng.Float64() * 0.05
		}
		out = append(out, v.Normalize())
	}
	return out
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := append(blob(rng, 0, 30), blob(rng, 7, 30)...)
	points = append(points, blob(rng, 13, 30)...)
	res, err := KMeans(points, Config{K: 3, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every blob must be pure: all 30 members in the same cluster.
	for b := 0; b < 3; b++ {
		first := res.Assignment[b*30]
		for i := 1; i < 30; i++ {
			if res.Assignment[b*30+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	if res.Sizes[0]+res.Sizes[1]+res.Sizes[2] != 90 {
		t.Errorf("sizes = %v", res.Sizes)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 2}); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := KMeans([]bbv.Vector{{1}}, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	// k > n clamps to n.
	res, err := KMeans([]bbv.Vector{{1, 0}, {0, 1}}, Config{K: 5, Seed: 1})
	if err != nil || res.K != 2 {
		t.Errorf("k clamp failed: %v %v", res, err)
	}
}

func TestRepresentativesAreClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := append(blob(rng, 0, 20), blob(rng, 9, 20)...)
	res, err := KMeans(points, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, rep := range res.Representatives {
		if rep < 0 {
			continue
		}
		if res.Assignment[rep] != c {
			t.Errorf("representative of cluster %d is assigned to %d", c, res.Assignment[rep])
		}
		repD := points[rep].EuclideanDistance(res.Centroids[c])
		for i, p := range points {
			if res.Assignment[i] == c && p.EuclideanDistance(res.Centroids[c]) < repD-1e-12 {
				t.Fatalf("point %d closer to centroid %d than its representative", i, c)
			}
		}
	}
}

// Property: each point is assigned to its nearest centroid once Lloyd
// converges, and inertia equals the recomputed sum.
func TestPropertyAssignmentOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var points []bbv.Vector
		for b := 0; b < 3; b++ {
			points = append(points, blob(rng, b*5, 10)...)
		}
		res, err := KMeans(points, Config{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		var inertia float64
		for i, p := range points {
			own := p.EuclideanDistance(res.Centroids[res.Assignment[i]])
			inertia += own * own
			for c := range res.Centroids {
				if p.EuclideanDistance(res.Centroids[c]) < own-1e-9 {
					return false
				}
			}
		}
		return math.Abs(inertia-res.Inertia) < 1e-6*(1+inertia)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points := append(blob(rng, 2, 25), blob(rng, 11, 25)...)
	a, _ := KMeans(points, Config{K: 2, Seed: 99})
	b, _ := KMeans(points, Config{K: 2, Seed: 99})
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestRestartsImproveOrEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var points []bbv.Vector
	for b := 0; b < 6; b++ {
		points = append(points, blob(rng, b*2, 15)...)
	}
	one, _ := KMeans(points, Config{K: 6, Seed: 7, Restarts: 1})
	many, _ := KMeans(points, Config{K: 6, Seed: 7, Restarts: 5})
	if many.Inertia > one.Inertia+1e-9 {
		t.Errorf("restarts worsened inertia: %g vs %g", many.Inertia, one.Inertia)
	}
}

func TestIdenticalPoints(t *testing.T) {
	points := make([]bbv.Vector, 10)
	for i := range points {
		points[i] = bbv.Vector{1, 0, 0}
	}
	res, err := KMeans(points, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("identical points inertia = %g", res.Inertia)
	}
}
