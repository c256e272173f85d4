// Package stats provides the shared numerical utilities used across the GMR
// library: deterministic random-number plumbing, truncated Gaussian sampling,
// Latin hypercube designs, ordinary least squares, and descriptive statistics.
//
// Every stochastic component in the library takes an explicit *rand.Rand so
// that experiments are reproducible from a single seed.
package stats

import "math/rand"

// NewRand returns a deterministic PRNG seeded with seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent child PRNG from rng. It is used to give each
// run, island, or worker its own stream while remaining reproducible from the
// parent seed.
func Split(rng *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(rng.Int63()))
}

// TruncGauss samples from a Gaussian with the given mean and standard
// deviation, truncated to [lo, hi] by clamping out-of-range draws to the
// nearest boundary. This matches the paper's Gaussian mutation: "If the
// sampled value lies outside of the given range, the boundary value is used
// instead" (Section III-B3).
func TruncGauss(rng *rand.Rand, mean, stddev, lo, hi float64) float64 {
	v := mean + stddev*rng.NormFloat64()
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LatinHypercube returns n points in the d-dimensional unit hypercube using
// Latin hypercube sampling: each dimension is divided into n equal strata and
// every stratum is hit exactly once, with the stratum order permuted
// independently per dimension.
func LatinHypercube(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			pts[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}
