package calib

import (
	"math"
	"math/rand"
)

// MCMC is random-walk Metropolis sampling of the likelihood implied by the
// RMSE objective (Gaussian noise assumption), reporting the best state
// visited — the standard use of MCMC calibrators as optimizers. Proposals
// have σ = 0.1 of the box width, and the acceptance temperature is the
// initial objective value / 10.
type MCMC struct{}

// mcmcStepFrac is the Metropolis proposal σ as a fraction of the box width.
const mcmcStepFrac = 0.1

// NewMCMC returns the Metropolis calibrator.
func NewMCMC() *MCMC { return &MCMC{} }

// Name implements Calibrator.
func (*MCMC) Name() string { return "MCMC" }

// Calibrate implements Calibrator.
func (m *MCMC) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	cur := uniformBox(rng, lo, hi)
	curF := score(cur)
	best, bestF := cloneVec(cur), curF
	temp := math.Max(curF/10, 1e-9)
	for i := 1; i < budget; i++ {
		prop := cloneVec(cur)
		for j := range prop {
			prop[j] += rng.NormFloat64() * mcmcStepFrac * (hi[j] - lo[j])
		}
		clampBox(prop, lo, hi)
		f := score(prop)
		if f < curF || rng.Float64() < math.Exp((curF-f)/temp) {
			cur, curF = prop, f
			if f < bestF {
				best, bestF = cloneVec(prop), f
			}
		}
	}
	return best, bestF
}

// SA is simulated annealing: Metropolis acceptance under a geometrically
// cooled temperature with shrinking proposal steps. The per-step cooling
// rate makes the temperature decay by ~1e3 over the budget.
type SA struct{}

// NewSA returns the simulated-annealing calibrator.
func NewSA() *SA { return &SA{} }

// Name implements Calibrator.
func (*SA) Name() string { return "SA" }

// Calibrate implements Calibrator.
func (s *SA) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	cur := uniformBox(rng, lo, hi)
	curF := score(cur)
	best, bestF := cloneVec(cur), curF
	temp := math.Max(curF/2, 1e-9)
	cool := math.Pow(1e-3, 1/math.Max(float64(budget), 2))
	for i := 1; i < budget; i++ {
		frac := float64(i) / float64(budget)
		stepScale := 0.25 * (1 - 0.9*frac) // steps shrink as we cool
		prop := cloneVec(cur)
		for j := range prop {
			prop[j] += rng.NormFloat64() * stepScale * (hi[j] - lo[j])
		}
		clampBox(prop, lo, hi)
		f := score(prop)
		if f < curF || rng.Float64() < math.Exp((curF-f)/temp) {
			cur, curF = prop, f
			if f < bestF {
				best, bestF = cloneVec(prop), f
			}
		}
		temp *= cool
	}
	return best, bestF
}
