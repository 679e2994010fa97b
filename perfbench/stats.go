package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of vs by linear
// interpolation between closest ranks; vs is sorted in place. It
// returns 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of p99 and lower quantiles that still has
// at least ten samples beyond it in a sample of n, so a tail figure is
// never read off a handful of outliers.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// median is quantile(vs, 0.5) on a copy, leaving vs untouched.
func median(vs []float64) float64 {
	return quantile(append([]float64(nil), vs...), 0.5)
}

// ratio is num/den, or 0 when den is 0 (the base is printed alongside,
// so a zero base is visible rather than hidden in a NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mix64 is the splitmix64 finaliser: a cheap, well-distributed hash of
// (seed, index) pairs, so every request's input is a pure function of
// the seed and the request number regardless of which caller sends it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
