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

// Objective scores a parameter vector; lower is better (the case study uses
// training RMSE, matching the paper's fitness function).
type Objective func(params []float64) float64

// BatchObjective scores many parameter vectors in one call, appending one
// value per vector to out (reusing its capacity) and returning it. Each
// scored vector counts as one objective evaluation against a calibrator's
// budget. Batch-capable objectives (RiverBatchObjective, the lane-batched
// evaluator behind it) amortize compiled-structure resolution and
// instruction dispatch across the whole batch; out[i] must equal what the
// scalar objective would return for params[i].
type BatchObjective func(params [][]float64, out []float64) []float64

// ScalarBatch adapts a scalar Objective to the batch signature (one
// sequential call per vector). Population calibrators run identically —
// same RNG stream, same trajectory, same result — under a scalar objective
// and its ScalarBatch adapter, because their batched phases are the
// canonical implementation (Calibrate delegates to CalibrateBatch).
func ScalarBatch(obj Objective) BatchObjective {
	return func(params [][]float64, out []float64) []float64 {
		for _, x := range params {
			out = append(out, obj(x))
		}
		return out
	}
}

// Calibrator optimizes an objective over a box with an evaluation budget.
type Calibrator interface {
	// Name is the method's display name (Table V row label).
	Name() string
	// Calibrate returns the best parameters found and their objective
	// value, using at most budget objective evaluations.
	Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64)
}

// BatchCalibrator is implemented by population calibrators (GA, SCE-UA,
// DREAM) whose evaluations arrive in natural cohorts — generations,
// complex sweeps, chain sweeps — and can therefore score whole populations
// per objective call. CalibrateBatch is the canonical implementation;
// Calibrate wraps the objective with ScalarBatch and delegates, so the two
// entry points follow identical trajectories by construction. Sequential
// methods (Nelder–Mead's probe chain, MCMC's single chain) have no cohort
// structure and stay scalar.
type BatchCalibrator interface {
	Calibrator
	// CalibrateBatch is Calibrate over a batch objective: same contract,
	// same budget accounting (one unit per scored vector).
	CalibrateBatch(obj BatchObjective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64)
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
