// Package stats provides the statistical machinery of sampled simulation:
// running moments (Welford), normal-theory confidence intervals as used by
// SMARTS/TurboSMARTS and PGSS, coefficients of variation, histograms, and
// the aggregate means reported in the paper's figures.
package stats

import (
	"math"
	"sort"

	"pgss/internal/pgsserrors"
)

// Running accumulates count, mean and variance incrementally (Welford's
// algorithm), numerically stable over long streams.
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddN incorporates x with weight n (n identical observations).
func (r *Running) AddN(x float64, n uint64) {
	for i := uint64(0); i < n; i++ {
		r.Add(x)
	}
}

// N returns the observation count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// CV returns the coefficient of variation (σ/μ); 0 when the mean is 0.
func (r *Running) CV() float64 {
	if r.mean == 0 {
		return 0
	}
	return math.Abs(r.StdDev() / r.mean)
}

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// ConfidenceZ maps a two-sided confidence level to its normal z-score for
// the levels used in the paper. Unknown levels fall back to z=3
// (≈99.7%, the paper's bound).
func ConfidenceZ(level float64) float64 {
	switch {
	case math.Abs(level-0.90) < 1e-9:
		return 1.6449
	case math.Abs(level-0.95) < 1e-9:
		return 1.9600
	case math.Abs(level-0.99) < 1e-9:
		return 2.5758
	case math.Abs(level-0.997) < 1e-9:
		return 3.0
	default:
		return 3.0
	}
}

// RelativeHalfWidth returns the half-width of the z-based confidence
// interval for the mean, relative to the mean: z·s/(√n·|x̄|). It returns
// +Inf for n < 2 or a zero mean, so "not yet within bounds" is the safe
// default.
func (r *Running) RelativeHalfWidth(z float64) float64 {
	if r.n < 2 || r.mean == 0 {
		return math.Inf(1)
	}
	return z * r.StdDev() / (math.Sqrt(float64(r.n)) * math.Abs(r.mean))
}

// WithinBound reports whether the relative CI half-width is at most eps at
// z-score z, requiring at least minN observations.
func (r *Running) WithinBound(eps, z float64, minN uint64) bool {
	if r.n < minN {
		return false
	}
	return r.RelativeHalfWidth(z) <= eps
}

// ArithmeticMean returns the mean of xs (0 when empty).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs. Non-positive values are
// floored at a tiny epsilon so that a zero-error benchmark does not
// annihilate the mean (matching common practice for error G-means).
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const floor = 1e-12
	var s float64
	for _, x := range xs {
		if x < floor {
			x = floor
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.StdDev()
}

// Mean is shorthand for ArithmeticMean.
func Mean(xs []float64) float64 { return ArithmeticMean(xs) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation; xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram is a fixed-width-bin histogram over [Min, Max); out-of-range
// values clamp into the edge bins (matching how the paper's Fig 3
// distribution is plotted).
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	total    uint64
}

// NewHistogram builds a histogram with the given bin count over [min, max).
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 || max <= min {
		return nil, pgsserrors.Invalidf("stats: bad histogram geometry [%g,%g) bins=%d", min, max, bins)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins)}, nil
}

// MustNewHistogram is NewHistogram that panics on error.
func MustNewHistogram(min, max float64, bins int) *Histogram {
	h, err := NewHistogram(min, max, bins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add records x with weight 1.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records x with weight n.
func (h *Histogram) AddN(x float64, n uint64) {
	b := int(float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b] += n
	h.total += n
}

// Total returns the summed weight.
func (h *Histogram) Total() uint64 { return h.total }

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Fraction returns bin i's share of the total weight.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Modes returns the indices of local maxima with at least minFrac of the
// total weight; Fig 3's "polymodal" claim is checked with this.
func (h *Histogram) Modes(minFrac float64) []int {
	var modes []int
	for i := range h.Counts {
		c := h.Counts[i]
		if h.Fraction(i) < minFrac {
			continue
		}
		left := uint64(0)
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := uint64(0)
		if i < len(h.Counts)-1 {
			right = h.Counts[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			modes = append(modes, i)
		}
	}
	return modes
}
