package stats

import (
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Standardize returns (xs - mean) / stddev along with the mean and stddev
// used. A zero stddev is replaced by 1 so constant series standardize to 0.
func Standardize(xs []float64) (z []float64, mean, stddev float64) {
	mean = Mean(xs)
	stddev = StdDev(xs)
	if stddev == 0 {
		stddev = 1
	}
	z = make([]float64, len(xs))
	for i, x := range xs {
		z[i] = (x - mean) / stddev
	}
	return z, mean, stddev
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
