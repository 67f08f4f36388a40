package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningAgainstNaive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 || !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g n = %d", r.Mean(), r.N())
	}
	// Naive unbiased variance of this set is 32/7.
	if !almost(r.Variance(), 32.0/7, 1e-12) {
		t.Errorf("variance = %g", r.Variance())
	}
}

func TestRunningEdgeCases(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 || r.CV() != 0 {
		t.Error("empty accumulator nonzero")
	}
	r.Add(5)
	if r.Variance() != 0 {
		t.Error("single-observation variance nonzero")
	}
	if !math.IsInf(r.RelativeHalfWidth(3), 1) {
		t.Error("n=1 half-width should be +Inf")
	}
}

func TestRunningAddN(t *testing.T) {
	var a, b Running
	a.AddN(3, 4)
	for i := 0; i < 4; i++ {
		b.Add(3)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Error("AddN mismatch")
	}
}

// Property: Welford matches the two-pass algorithm.
func TestPropertyWelford(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		var clean []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			clean = append(clean, x)
			r.Add(x)
		}
		if len(clean) < 2 {
			return true
		}
		var sum float64
		for _, x := range clean {
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		naiveVar := m2 / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return almost(r.Mean(), mean, 1e-6*math.Max(1, math.Abs(mean))) &&
			almost(r.Variance(), naiveVar, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfidenceZ(t *testing.T) {
	cases := map[float64]float64{0.90: 1.6449, 0.95: 1.96, 0.99: 2.5758, 0.997: 3.0, 0.42: 3.0}
	for level, want := range cases {
		if got := ConfidenceZ(level); got != want {
			t.Errorf("z(%g) = %g, want %g", level, got, want)
		}
	}
}

func TestWithinBound(t *testing.T) {
	var r Running
	// Identical samples: variance 0 → any bound met once minN reached.
	for i := 0; i < 7; i++ {
		r.Add(10)
	}
	if r.WithinBound(0.03, 3, 8) {
		t.Error("bound met below minN")
	}
	r.Add(10)
	if !r.WithinBound(0.03, 3, 8) {
		t.Error("zero-variance bound not met at minN")
	}
	// High-variance samples: bound must fail.
	var h Running
	for i := 0; i < 10; i++ {
		h.Add(float64(i * i))
	}
	if h.WithinBound(0.03, 3, 8) {
		t.Error("high-variance bound met")
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if ArithmeticMean(xs) != 7.0/3 {
		t.Errorf("amean = %g", ArithmeticMean(xs))
	}
	if !almost(GeometricMean(xs), 2, 1e-12) {
		t.Errorf("gmean = %g", GeometricMean(xs))
	}
	if ArithmeticMean(nil) != 0 || GeometricMean(nil) != 0 {
		t.Error("empty means nonzero")
	}
	// G-mean floors non-positive values instead of zeroing everything.
	if GeometricMean([]float64{0, 100}) <= 0 {
		t.Error("gmean annihilated by zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 || Percentile(xs, 50) != 3 {
		t.Errorf("percentiles: %g %g %g", Percentile(xs, 0), Percentile(xs, 50), Percentile(xs, 100))
	}
	if Percentile(xs, 75) != 4 {
		t.Errorf("p75 = %g, want 4 (interpolated)", Percentile(xs, 75))
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile nonzero")
	}
	// Input must not be mutated (sorted copy).
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := MustNewHistogram(0, 10, 5)
	h.Add(1)   // bin 0
	h.Add(9.9) // bin 4
	h.Add(-5)  // clamps to bin 0
	h.Add(50)  // clamps to bin 4
	if h.Counts[0] != 2 || h.Counts[4] != 2 || h.Total() != 4 {
		t.Errorf("counts: %v", h.Counts)
	}
	if h.Fraction(0) != 0.5 {
		t.Errorf("fraction = %g", h.Fraction(0))
	}
	if !almost(h.BinCenter(0), 1, 1e-12) {
		t.Errorf("bin center = %g", h.BinCenter(0))
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("degenerate histogram accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero-bin histogram accepted")
	}
}

func TestHistogramModes(t *testing.T) {
	h := MustNewHistogram(0, 10, 10)
	// Two clear modes at bins 2 and 7.
	h.AddN(2.5, 100)
	h.AddN(1.5, 20)
	h.AddN(3.5, 20)
	h.AddN(7.5, 80)
	h.AddN(6.5, 10)
	h.AddN(8.5, 10)
	modes := h.Modes(0.05)
	if len(modes) != 2 {
		t.Errorf("modes = %v, want 2", modes)
	}
}

func TestStdDevHelper(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stddev = %g", got)
	}
}
