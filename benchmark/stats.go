package main

import "sort"

// summary is a median with its quartiles over one metric's samples.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// IQR returns the distance between the quartiles.
func (s summary) IQR() float64 { return s.Q3 - s.Q1 }

// summarize returns the median and quartiles of xs. The quartiles use the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here are the ones a reader recomputes from the raw
// values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: len(d), Median: median(d)}
	if len(d) == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	s.Q1, s.Q3 = quantile(d, 1), quantile(d, 3)
	return s
}

// median of sorted d.
func median(d []float64) float64 {
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, linearly
// interpolated between the nearest ranks: 0 gives the least value, 100
// the greatest.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	h := p / 100 * float64(len(d)-1)
	lo := int(h)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (h-float64(lo))*(d[lo+1]-d[lo])
}

// quantile returns the i-th of the three quartile cut points of sorted d
// (len ≥ 2), exactly as statistics.quantiles(d, n=4, method="exclusive").
func quantile(d []float64, i int) float64 {
	const n = 4
	ld := len(d)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (d[j-1]*(n-delta) + d[j]*delta) / n
}
