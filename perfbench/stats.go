package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive"
// method), so spreads printed here match the ones derived from the
// driver's own runs. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
