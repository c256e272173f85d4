package calib

import (
	"math/rand"
)

// GA is a real-coded genetic algorithm: tournament selection, blend (BLX-α)
// crossover, Gaussian mutation scaled to the box, and elitism. This is the
// classic approach previously used for river-model calibration [Kim et al.
// 2010, 2014], which GMR's model revision is compared against.
type GA struct{}

// GA settings.
const (
	gaPop   = 24  // population size
	gaPMut  = 0.2 // per-gene mutation probability
	gaElite = 2   // elites copied unchanged
)

// NewGA returns a GA calibrator with default settings.
func NewGA() *GA { return &GA{} }

// Name implements Calibrator.
func (*GA) Name() string { return "GA" }

// Calibrate implements Calibrator: each generation's children are
// generated first (consuming the RNG stream exactly as the sequential
// generate-then-evaluate loop did — evaluation consumes no randomness) and
// then scored as one cohort in a single objective call. Tournament selection reads
// the previous generation, so deferring evaluation to the cohort boundary
// changes nothing about the trajectory.
func (g *GA) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	evals := 0
	xs := make([][]float64, 0, gaPop)
	fs := make([]float64, 0, gaPop)
	for i := 0; i < gaPop; i++ {
		xs = append(xs, uniformBox(rng, lo, hi))
	}
	fs = obj(xs, fs[:0])
	evals += len(xs)
	cur := make([]scored, gaPop)
	for i := range cur {
		cur[i] = scored{xs[i], fs[i]}
	}
	sortScored(cur)
	tournament := func() []float64 {
		a, b := cur[rng.Intn(gaPop)], cur[rng.Intn(gaPop)]
		if a.f < b.f {
			return a.x
		}
		return b.x
	}
	const alpha = 0.3 // BLX-α expansion
	for evals < budget {
		next := make([]scored, 0, gaPop)
		for i := 0; i < gaElite && i < len(cur); i++ {
			next = append(next, scored{cloneVec(cur[i].x), cur[i].f})
		}
		nchild := gaPop - len(next)
		if nchild > budget-evals {
			nchild = budget - evals
		}
		xs = xs[:0]
		for c := 0; c < nchild; c++ {
			p1, p2 := tournament(), tournament()
			child := make([]float64, len(lo))
			for j := range child {
				a, b := p1[j], p2[j]
				if a > b {
					a, b = b, a
				}
				span := b - a
				child[j] = a - alpha*span + rng.Float64()*(span+2*alpha*span)
				if rng.Float64() < gaPMut {
					child[j] += rng.NormFloat64() * (hi[j] - lo[j]) / 10
				}
			}
			clampBox(child, lo, hi)
			xs = append(xs, child)
		}
		fs = obj(xs, fs[:0])
		evals += len(xs)
		for i, x := range xs {
			next = append(next, scored{x, fs[i]})
		}
		cur = next
		sortScored(cur)
	}
	return cur[0].x, cur[0].f
}
