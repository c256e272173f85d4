package calib

import (
	"math/rand"
)

// MLE performs maximum-likelihood estimation: under i.i.d. Gaussian
// observation noise the likelihood is maximized exactly where the RMSE
// objective is minimized, so MLE reduces to deterministic local
// optimization of the objective. It runs Nelder–Mead simplex restarts from
// the prior means and random points until the budget is exhausted.
type MLE struct{}

// NewMLE returns the maximum-likelihood calibrator.
func NewMLE() *MLE { return &MLE{} }

// Name implements Calibrator.
func (*MLE) Name() string { return "MLE" }

// Calibrate implements Calibrator.
func (*MLE) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	evals := 0
	counted := func(x []float64) float64 {
		evals++
		return score(x)
	}
	var best []float64
	bestF := 0.0
	first := true
	for evals < budget {
		var start []float64
		if first {
			// First restart: box centers (the prior-mean analogue).
			start = make([]float64, len(lo))
			for i := range start {
				start[i] = (lo[i] + hi[i]) / 2
			}
		} else {
			start = uniformBox(rng, lo, hi)
		}
		x, f := nelderMead(counted, start, lo, hi, budget-evals, &evals)
		if first || f < bestF {
			best, bestF = x, f
			first = false
		}
	}
	return best, bestF
}

// nelderMead runs a box-clamped simplex search from start. The evals
// counter is shared with the caller so restarts respect the total budget.
func nelderMead(obj func([]float64) float64, start, lo, hi []float64, maxEvals int, evals *int) ([]float64, float64) {
	n := len(start)
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	begin := *evals
	spent := func() int { return *evals - begin }

	// Initial simplex: start plus per-axis steps of 10% of the box.
	simplex := make([]scored, 0, n+1)
	p0 := cloneVec(start)
	clampBox(p0, lo, hi)
	simplex = append(simplex, scored{p0, obj(p0)})
	for i := 0; i < n && spent() < maxEvals; i++ {
		p := cloneVec(p0)
		step := (hi[i] - lo[i]) * 0.1
		if step == 0 {
			step = 0.05
		}
		p[i] += step
		clampBox(p, lo, hi)
		simplex = append(simplex, scored{p, obj(p)})
	}
	for spent() < maxEvals {
		sortScored(simplex)
		// Centroid of all but the worst.
		worst := len(simplex) - 1
		centroid := make([]float64, n)
		for _, s := range simplex[:worst] {
			for j := range centroid {
				centroid[j] += s.x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(worst)
		}
		move := func(coef float64) scored {
			p := make([]float64, n)
			for j := range p {
				p[j] = centroid[j] + coef*(centroid[j]-simplex[worst].x[j])
			}
			clampBox(p, lo, hi)
			return scored{p, obj(p)}
		}
		refl := move(alpha)
		switch {
		case refl.f < simplex[0].f:
			if spent() >= maxEvals {
				simplex[worst] = refl
				break
			}
			exp := move(gamma)
			if exp.f < refl.f {
				simplex[worst] = exp
			} else {
				simplex[worst] = refl
			}
		case refl.f < simplex[worst-1].f:
			simplex[worst] = refl
		default:
			if spent() >= maxEvals {
				break
			}
			contr := move(-rho)
			if contr.f < simplex[worst].f {
				simplex[worst] = contr
			} else {
				// Shrink toward the best point.
				for i := 1; i < len(simplex) && spent() < maxEvals; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = obj(simplex[i].x)
				}
			}
		}
		// Convergence: simplex collapsed.
		sortScored(simplex)
		if simplex[len(simplex)-1].f-simplex[0].f < 1e-12 {
			break
		}
	}
	sortScored(simplex)
	return simplex[0].x, simplex[0].f
}
