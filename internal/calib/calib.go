// Package calib implements the model-calibration baselines of Section
// IV-B3: nine parameter-optimization methods that tune the constants of the
// fixed manual process within the Table III bounds — GA, Monte Carlo, Latin
// hypercube sampling, maximum-likelihood (Nelder–Mead), Markov chain Monte
// Carlo, simulated annealing, DREAM, SCE-UA, and DE-MCz. They share a
// common Calibrator interface over a box-bounded objective, mirroring the
// paper's use of one framework (SPOTPY) for all of them.
package calib

import (
	"math/rand"
	"sort"
)

// Objective scores many parameter vectors in one call, appending one value
// per vector to out (reusing its capacity) and returning it; lower is
// better (the case study uses training RMSE, matching the paper's fitness
// function). Each scored vector counts as one objective evaluation against
// a calibrator's budget. Population calibrators (GA, SCE-UA, DREAM) pass
// whole cohorts — generations, complex sweeps, chain sweeps — which
// RiverObjective scores on the lane kernel; the sequential ones pass one
// vector per call (single), which it scores on the scalar loop. out[i]
// must not depend on which other vectors share the call.
type Objective func(params [][]float64, out []float64) []float64

// single adapts obj to one vector per call, for the calibrators whose
// evaluations form a chain rather than cohorts. The one-element cohort and
// the result buffer are reused, so a call allocates nothing of its own.
func single(obj Objective) func(x []float64) float64 {
	var in [1][]float64
	out := make([]float64, 0, 1)
	return func(x []float64) float64 {
		in[0] = x
		out = obj(in[:], out[:0])
		return out[0]
	}
}

// Calibrator optimizes an objective over a box with an evaluation budget.
type Calibrator interface {
	// Name is the method's display name (Table V row label).
	Name() string
	// Calibrate returns the best parameters found and their objective
	// value, using at most budget objective evaluations (one per scored
	// vector).
	Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64)
}

// All returns the nine calibrators of the paper in Table V order:
// GA, MC, LHS, MLE, MCMC, SA, DREAM, SCE-UA, DE-MCz.
func All() []Calibrator {
	return []Calibrator{
		NewGA(),
		NewMC(),
		NewLHS(),
		NewMLE(),
		NewMCMC(),
		NewSA(),
		NewDREAM(),
		NewSCEUA(),
		NewDEMCZ(),
	}
}

// clampBox limits every coordinate to [lo, hi].
func clampBox(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// uniformBox samples a point uniformly inside the box.
func uniformBox(rng *rand.Rand, lo, hi []float64) []float64 {
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
	}
	return x
}

// scored pairs a point with its objective value.
type scored struct {
	x []float64
	f float64
}

func sortScored(s []scored) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].f < s[j].f })
}

func cloneVec(x []float64) []float64 { return append([]float64(nil), x...) }
