package calib

import (
	"math"
	"math/rand"
)

// DREAM is differential evolution adaptive Metropolis [Vrugt 2016]: N
// parallel chains propose jumps built from the difference of two other
// chains' states scaled by γ = 2.38/√(2d), with occasional γ=1 mode jumps
// and per-dimension crossover, accepted by the Metropolis rule. It runs
// max(2d, 8) chains.
type DREAM struct {
	// Record, if non-nil, retains post-burn-in chain states (one offer per
	// chain per sweep, in chain order). Recording consumes no randomness,
	// so enabling it leaves the calibration trajectory bitwise identical
	// (DESIGN.md §15).
	Record *PosteriorRecorder
}

// dreamCR is DREAM's per-dimension crossover probability.
const dreamCR = 0.9

// NewDREAM returns the DREAM calibrator.
func NewDREAM() *DREAM { return &DREAM{} }

// Name implements Calibrator.
func (*DREAM) Name() string { return "DREAM" }

// Calibrate implements Calibrator. Each sweep snapshots the chain
// states, generates every chain's proposal against that snapshot (consuming
// randomness in chain order), scores the whole sweep in one batch call, and
// then applies the Metropolis acceptances in chain order — the acceptance
// draw happens only when the greedy test fails, as in a sequential
// Metropolis chain. Proposals read the start-of-sweep snapshot rather than
// mid-sweep updates, which is what makes a sweep batchable and keeps the
// sampler deterministic for a given RNG stream.
func (dr *DREAM) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	d := len(lo)
	n := max(2*d, 8) // chains
	evals := 0
	xs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, uniformBox(rng, lo, hi))
	}
	fs := obj(xs, nil)
	evals += n
	chains := make([]scored, n)
	for i := range chains {
		chains[i] = scored{xs[i], fs[i]}
	}
	best, bestF := cloneVec(chains[0].x), chains[0].f
	for _, c := range chains {
		if c.f < bestF {
			best, bestF = cloneVec(c.x), c.f
		}
	}
	temp := math.Max(bestF/10, 1e-9)
	gammaBase := 2.38 / math.Sqrt(2*float64(d))
	snap := make([]scored, n)
	for evals < budget {
		sweep := n
		if sweep > budget-evals {
			sweep = budget - evals
		}
		copy(snap, chains)
		xs = xs[:0]
		for i := 0; i < sweep; i++ {
			r1, r2 := rng.Intn(n), rng.Intn(n)
			for r1 == i {
				r1 = rng.Intn(n)
			}
			for r2 == i || r2 == r1 {
				r2 = rng.Intn(n)
			}
			gamma := gammaBase
			if rng.Float64() < 0.1 {
				gamma = 1.0 // mode-jumping step
			}
			prop := cloneVec(snap[i].x)
			moved := false
			for j := 0; j < d; j++ {
				if rng.Float64() > dreamCR {
					continue
				}
				e := 1e-6 * (hi[j] - lo[j]) * rng.NormFloat64()
				prop[j] += gamma*(snap[r1].x[j]-snap[r2].x[j]) + e
				moved = true
			}
			if !moved {
				j := rng.Intn(d)
				prop[j] += gamma * (snap[r1].x[j] - snap[r2].x[j])
			}
			clampBox(prop, lo, hi)
			xs = append(xs, prop)
		}
		fs = obj(xs, fs[:0])
		evals += len(xs)
		for i := 0; i < sweep; i++ {
			f := fs[i]
			if f < chains[i].f || rng.Float64() < math.Exp((chains[i].f-f)/temp) {
				chains[i] = scored{xs[i], f}
				if f < bestF {
					best, bestF = cloneVec(xs[i]), f
				}
			}
			dr.Record.Record(chains[i].x)
		}
	}
	return best, bestF
}

// DEMCZ is DE-MC(Z) [ter Braak & Vrugt 2008]: differential evolution Markov
// chain sampling where jump vectors are built from states drawn from a
// growing archive Z of past states rather than the current population,
// allowing fewer parallel chains: it runs 3, and archives every accepted
// state.
type DEMCZ struct{}

// NewDEMCZ returns the DE-MCz calibrator.
func NewDEMCZ() *DEMCZ { return &DEMCZ{} }

// Name implements Calibrator.
func (*DEMCZ) Name() string { return "DE-MCz" }

// Calibrate implements Calibrator.
func (dz *DEMCZ) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	score := single(obj)
	d := len(lo)
	const n = 3 // chains
	evals := 0
	// Seed the archive with an initial spread of states.
	m0 := 10 * n
	if m0 > budget/2 {
		m0 = budget / 2
	}
	if m0 < n {
		m0 = n
	}
	archive := make([]scored, 0, budget)
	for i := 0; i < m0; i++ {
		x := uniformBox(rng, lo, hi)
		archive = append(archive, scored{x, score(x)})
		evals++
	}
	chains := make([]scored, n)
	copy(chains, archive[:n])
	best, bestF := cloneVec(archive[0].x), archive[0].f
	for _, s := range archive {
		if s.f < bestF {
			best, bestF = cloneVec(s.x), s.f
		}
	}
	temp := math.Max(bestF/10, 1e-9)
	gamma := 2.38 / math.Sqrt(2*float64(d))
	for evals < budget {
		for i := 0; i < n && evals < budget; i++ {
			a := archive[rng.Intn(len(archive))]
			b := archive[rng.Intn(len(archive))]
			g := gamma
			if rng.Float64() < 0.1 {
				g = 1.0
			}
			prop := cloneVec(chains[i].x)
			for j := 0; j < d; j++ {
				e := 1e-6 * (hi[j] - lo[j]) * rng.NormFloat64()
				prop[j] += g*(a.x[j]-b.x[j]) + e
			}
			clampBox(prop, lo, hi)
			f := score(prop)
			evals++
			if f < chains[i].f || rng.Float64() < math.Exp((chains[i].f-f)/temp) {
				chains[i] = scored{prop, f}
				archive = append(archive, scored{cloneVec(prop), f})
				if f < bestF {
					best, bestF = cloneVec(prop), f
				}
			}
		}
	}
	return best, bestF
}
