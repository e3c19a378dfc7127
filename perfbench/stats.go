package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics module (method "inclusive") use. xs is not modified; an
// empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }
