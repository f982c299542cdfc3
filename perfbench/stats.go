package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (the R-7 / numpy default). It
// returns NaN for an empty slice and does not modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points that split xs into four groups,
// computed exactly like Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so the spreads this program prints match the
// ones a Python check of the same values computes. It needs at least two
// values; with fewer it returns NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
