package calib

import (
	"math"
	"math/rand"

	"gmr/internal/stats"
)

// MC is plain Monte Carlo search: uniform random points in the box, keep
// the best.
type MC struct{}

// NewMC returns the Monte Carlo calibrator.
func NewMC() *MC { return &MC{} }

// Name implements Calibrator.
func (*MC) Name() string { return "MC" }

// Calibrate implements Calibrator.
func (*MC) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	best := uniformBox(rng, lo, hi)
	bestF := score(best)
	for i := 1; i < budget; i++ {
		x := uniformBox(rng, lo, hi)
		if f := score(x); f < bestF {
			best, bestF = x, f
		}
	}
	return best, bestF
}

// LHS is Latin hypercube sampling: a space-filling design of exactly budget
// points, one per stratum in every dimension.
type LHS struct{}

// NewLHS returns the Latin hypercube calibrator.
func NewLHS() *LHS { return &LHS{} }

// Name implements Calibrator.
func (*LHS) Name() string { return "LHS" }

// Calibrate implements Calibrator.
func (*LHS) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	if budget < 1 {
		budget = 1
	}
	unit := stats.LatinHypercube(rng, budget, len(lo))
	var best []float64
	bestF := math.Inf(1)
	for _, u := range unit {
		x := make([]float64, len(lo))
		for j := range x {
			x[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		if f := score(x); f < bestF {
			best, bestF = x, f
		}
	}
	return best, bestF
}
