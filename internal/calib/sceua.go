package calib

import (
	"math"
	"math/rand"
	"sort"
)

// SCEUA is the shuffled complex evolution method (SCE-UA) [Duan et al.
// 1994]: the population is partitioned into complexes, each complex evolves
// independently through competitive simplex (CCE) steps on triangularly
// weighted sub-simplexes, and complexes are periodically shuffled back
// together. It runs p = 4 complexes of m = 2d+1 members each.
type SCEUA struct{}

// NewSCEUA returns the SCE-UA calibrator.
func NewSCEUA() *SCEUA { return &SCEUA{} }

// Name implements Calibrator.
func (*SCEUA) Name() string { return "SCE-UA" }

// cceState carries one complex's in-flight CCE step between the batched
// evaluation phases of a lockstep sweep.
type cceState struct {
	k        int    // complex index
	worstIdx int    // index within the complex of the member being replaced
	worst    scored // the current worst of the sub-simplex
	centroid []float64
	cand     []float64 // candidate point of the current phase
	repl     scored    // chosen replacement once done
	done     bool
}

// Calibrate implements Calibrator. The complexes evolve in
// lockstep: on each CCE step every complex draws its sub-simplex and builds
// its reflection point (consuming randomness in complex order), then all
// reflections are scored in one batch call; complexes whose reflection
// failed build contractions, scored in a second batch; remaining failures
// draw random replacements, scored in a third. Each phase is truncated to
// the remaining budget (members left unevaluated keep their worst point),
// so the budget is never exceeded.
func (s *SCEUA) Calibrate(obj Objective, lo, hi []float64, budget int, rng *rand.Rand) ([]float64, float64) {
	d := len(lo)
	p, m := 4, 2*d+1 // complexes, complex size
	evals := 0
	n0 := p * m
	if n0 > budget {
		n0 = budget
	}
	if n0 < 1 {
		n0 = 1
	}
	xs := make([][]float64, 0, n0)
	for i := 0; i < n0; i++ {
		xs = append(xs, uniformBox(rng, lo, hi))
	}
	fs := obj(xs, nil)
	evals += len(xs)
	pop := make([]scored, 0, p*m)
	for i := range xs {
		pop = append(pop, scored{xs[i], fs[i]})
	}
	sortScored(pop)
	q := d + 1 // sub-simplex size
	if q > m {
		q = m
	}
	states := make([]cceState, 0, p)
	pend := make([]int, 0, p)
	for evals < budget {
		evalsBefore := evals
		// Partition into complexes by systematic sampling: complex k
		// gets ranks k, k+p, k+2p, ...
		complexes := make([][]scored, p)
		for i, ind := range pop {
			complexes[i%p] = append(complexes[i%p], ind)
		}
		// Evolve all complexes in lockstep CCE steps.
		for step := 0; step < m && evals < budget; step++ {
			states = states[:0]
			for k := 0; k < p; k++ {
				cx := complexes[k]
				qk := q
				if qk > len(cx) {
					qk = len(cx)
				}
				if qk < 2 {
					continue // degenerate complex: no simplex to reflect
				}
				// Triangular selection of qk distinct members.
				idx := triangularSample(rng, len(cx), qk)
				sub := make([]scored, qk)
				for i, j := range idx {
					sub[i] = cx[j]
				}
				sortScored(sub)
				worst := sub[qk-1]
				// Reflect the worst through the centroid of the rest.
				centroid := make([]float64, d)
				for _, sc := range sub[:qk-1] {
					for j := range centroid {
						centroid[j] += sc.x[j]
					}
				}
				for j := range centroid {
					centroid[j] /= float64(qk - 1)
				}
				refl := make([]float64, d)
				for j := range refl {
					refl[j] = 2*centroid[j] - worst.x[j]
				}
				clampBox(refl, lo, hi)
				worstIdx := idx[0]
				for _, j := range idx {
					if cx[j].f > cx[worstIdx].f {
						worstIdx = j
					}
				}
				states = append(states, cceState{
					k: k, worstIdx: worstIdx, worst: worst,
					centroid: centroid, cand: refl,
				})
			}
			if len(states) == 0 {
				break
			}
			// Phase 1: score all reflections in one batch.
			nEval := budget - evals
			if nEval > len(states) {
				nEval = len(states)
			}
			xs = xs[:0]
			for i := 0; i < nEval; i++ {
				xs = append(xs, states[i].cand)
			}
			fs = obj(xs, fs[:0])
			evals += len(xs)
			for i := range states {
				st := &states[i]
				if i >= nEval {
					st.repl, st.done = st.worst, true
					continue
				}
				if fs[i] < st.worst.f {
					st.repl, st.done = scored{st.cand, fs[i]}, true
				}
			}
			// Phase 2: contractions for complexes whose reflection failed.
			pend = pend[:0]
			for i := range states {
				if !states[i].done {
					pend = append(pend, i)
				}
			}
			nEval = budget - evals
			if nEval > len(pend) {
				nEval = len(pend)
			}
			xs = xs[:0]
			for _, i := range pend[:nEval] {
				st := &states[i]
				contr := make([]float64, d)
				for j := range contr {
					contr[j] = (st.centroid[j] + st.worst.x[j]) / 2
				}
				st.cand = contr
				xs = append(xs, contr)
			}
			fs = obj(xs, fs[:0])
			evals += len(xs)
			for ii, i := range pend {
				st := &states[i]
				if ii >= nEval {
					st.repl, st.done = st.worst, true
					continue
				}
				if fs[ii] < st.worst.f {
					st.repl, st.done = scored{st.cand, fs[ii]}, true
				}
			}
			// Phase 3: random replacement (mutation step) for the rest.
			k := 0
			for _, i := range pend {
				if !states[i].done {
					pend[k] = i
					k++
				}
			}
			pend = pend[:k]
			nEval = budget - evals
			if nEval > len(pend) {
				nEval = len(pend)
			}
			xs = xs[:0]
			for _, i := range pend[:nEval] {
				x := uniformBox(rng, lo, hi)
				states[i].cand = x
				xs = append(xs, x)
			}
			fs = obj(xs, fs[:0])
			evals += len(xs)
			for ii, i := range pend {
				st := &states[i]
				if ii >= nEval {
					st.repl = st.worst
					continue
				}
				st.repl = scored{st.cand, fs[ii]}
			}
			// Apply replacements.
			for i := range states {
				st := &states[i]
				complexes[st.k][st.worstIdx] = st.repl
			}
		}
		// Shuffle: merge and re-rank.
		pop = pop[:0]
		for _, cx := range complexes {
			pop = append(pop, cx...)
		}
		sortScored(pop)
		if evals == evalsBefore {
			break // every complex degenerate: no progress possible
		}
	}
	return pop[0].x, pop[0].f
}

// triangularSample draws q distinct indices from [0, n) with probability
// decreasing linearly in rank (index 0 most likely), per the CCE scheme.
func triangularSample(rng *rand.Rand, n, q int) []int {
	if q > n {
		q = n
	}
	chosen := map[int]bool{}
	out := make([]int, 0, q)
	for len(out) < q {
		// P(rank i) ∝ n - i: inverse-CDF via rejection-free transform.
		u := rng.Float64()
		i := int(float64(n) * (1 - math.Sqrt(1-u)))
		if i >= n {
			i = n - 1
		}
		if !chosen[i] {
			chosen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
