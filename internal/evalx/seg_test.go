package evalx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gmr/internal/gp"
)

// Differential and allocation tests for the segmented evaluation path
// (tier-1.5 exogenous-plan cache + EvaluateParamBatch, DESIGN.md §10).

// proposals returns one unevaluated clone of ind per parameter vector, each
// carrying ind's memoized structure key: the candidates of a parameter
// sweep.
func proposals(ind *gp.Individual, paramSets [][]float64) []*gp.Individual {
	out := make([]*gp.Individual, len(paramSets))
	for i, ps := range paramSets {
		out[i] = ind.Clone()
		out[i].Params = append([]float64(nil), ps...)
		out[i].Invalidate()
	}
	return out
}

// sameFitness fails the test unless got and want carry bitwise-equal
// fitnesses and equal full-evaluation flags, member by member.
func sameFitness(t *testing.T, what string, got, want []*gp.Individual) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d members, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Evaluated || math.Float64bits(got[i].Fitness) != math.Float64bits(want[i].Fitness) || got[i].FullEval != want[i].FullEval {
			t.Fatalf("%s member %d: fitness %v (full %t, evaluated %t), want %v (full %t)",
				what, i, got[i].Fitness, got[i].FullEval, got[i].Evaluated, want[i].Fitness, want[i].FullEval)
		}
	}
}

// jitterParams returns a copy of base with every entry nudged by a small
// deterministic factor.
func jitterParams(rng *rand.Rand, base []float64) []float64 {
	ps := append([]float64(nil), base...)
	for i := range ps {
		ps[i] *= 1 + 0.2*(rng.Float64()-0.5)
	}
	return ps
}

// TestSegmentedMatchesMonolithic: over grammar-derived random structures ×
// jittered parameter vectors, an evaluator using the segmented register VM
// must produce bitwise-identical fitnesses (and short-circuit decisions) to
// one interpreting each whole derivative tree per substep (UseCompile off,
// the reference oracle). Both evaluators see the same evaluation sequence,
// so their frozen references evolve in lockstep.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, UseShortCircuit: true, Sim: simCfg(obs)}
	treeOpts := opts
	treeOpts.UseCompile = false
	segEv := New(forcing, obs, consts, opts)
	treeEv := New(forcing, obs, consts, treeOpts)

	rng := rand.New(rand.NewSource(17))
	manual, _ := manualInd(t)
	inds := []*gp.Individual{manual}
	for i := 0; i < 25; i++ {
		inds = append(inds, randomInd(t, g, int64(100+i)))
	}
	for round := 0; round < 3; round++ {
		segEv.BeginBatch()
		treeEv.BeginBatch()
		for i, ind := range inds {
			ps := jitterParams(rng, ind.Params)
			a := ind.Clone()
			a.Params = append([]float64(nil), ps...)
			a.Invalidate()
			b := a.Clone()
			segEv.Evaluate(a)
			treeEv.Evaluate(b)
			if math.Float64bits(a.Fitness) != math.Float64bits(b.Fitness) {
				t.Fatalf("round %d individual %d: segmented fitness %v != tree %v", round, i, a.Fitness, b.Fitness)
			}
			if a.FullEval != b.FullEval {
				t.Fatalf("round %d individual %d: short-circuit decision diverged (seg full=%v tree full=%v)",
					round, i, a.FullEval, b.FullEval)
			}
		}
		segEv.EndBatch()
		treeEv.EndBatch()
	}
	st := segEv.Stats()
	if st.ExogPlanBuilds == 0 {
		t.Fatal("segmented evaluator built no exogenous plans; the segmented path did not engage")
	}
	if st.ExogPlanHits == 0 {
		t.Fatal("no exogenous-plan hits across repeat evaluations")
	}
	if ts := treeEv.Stats(); ts.ExogPlanBuilds != 0 || ts.ExogPlanHits != 0 {
		t.Fatalf("tree evaluator touched the plan cache: %+v", ts)
	}
}

// TestEvaluateParamBatchMatchesSequential: batch evaluation of N parameter
// vectors over one structure must reproduce N sequential Evaluate calls
// bitwise, fitness and full-evaluation flags alike.
func TestEvaluateParamBatchMatchesSequential(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, UseShortCircuit: true, Sim: simCfg(obs)}

	rng := rand.New(rand.NewSource(23))
	for si := 0; si < 6; si++ {
		ind := randomInd(t, g, int64(200+si))
		paramSets := make([][]float64, 16)
		for i := range paramSets {
			paramSets[i] = jitterParams(rng, ind.Params)
		}

		seqEv := New(forcing, obs, consts, opts)
		seqEv.BeginBatch()
		want := proposals(ind, paramSets)
		for _, c := range want {
			seqEv.Evaluate(c)
		}
		seqEv.EndBatch()

		batchEv := New(forcing, obs, consts, opts)
		batchEv.BeginBatch()
		got := proposals(ind, paramSets)
		batchEv.EvaluateParamBatch(got)
		batchEv.EndBatch()

		sameFitness(t, fmt.Sprintf("structure %d", si), got, want)
		// The short-circuiting reference must end up identical, so later
		// decisions cannot drift between the two modes.
		if a, b := seqEv.ShortCircuitRef(), batchEv.ShortCircuitRef(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("structure %d: short-circuit refs diverged: sequential %v batch %v", si, a, b)
		}
	}
}

// TestEvaluateParamBatchCacheDiscipline: the batch path reads the tier-2
// cache but never writes it — repeating a batch re-simulates (no
// self-inflicted cache growth), while entries inserted by sequential
// Evaluate calls are served to batch members.
func TestEvaluateParamBatchCacheDiscipline(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, Sim: simCfg(obs)}
	ev := New(forcing, obs, consts, opts)

	rng := rand.New(rand.NewSource(31))
	paramSets := make([][]float64, 8)
	for i := range paramSets {
		paramSets[i] = jitterParams(rng, ind.Params)
	}
	ev.BeginBatch()
	r1 := proposals(ind, paramSets)
	ev.EvaluateParamBatch(r1)
	if hits := ev.Stats().CacheHits; hits != 0 {
		t.Fatalf("first batch had %d tier-2 hits, want 0", hits)
	}
	r2 := proposals(ind, paramSets)
	ev.EvaluateParamBatch(r2)
	if hits := ev.Stats().CacheHits; hits != 0 {
		t.Fatalf("repeat batch had %d tier-2 hits; the batch path must not insert", hits)
	}
	sameFitness(t, "repeat batch", r2, r1)
	// Members already evaluated are skipped: no call, no member counted.
	ev.EvaluateParamBatch(r2)

	// A sequential evaluation inserts; the next batch over the same params
	// is served from tier 2.
	ev.Evaluate(proposals(ind, paramSets[:1])[0])
	ev.EvaluateParamBatch(proposals(ind, paramSets[:1]))
	if hits := ev.Stats().CacheHits; hits != 1 {
		t.Fatalf("batch after sequential warm-up had %d tier-2 hits, want 1", hits)
	}
	ev.EndBatch()

	st := ev.Stats()
	if st.BatchCalls != 3 || st.BatchMembers != 8+8+1 {
		t.Fatalf("batch counters calls=%d members=%d; want 3 and 17", st.BatchCalls, st.BatchMembers)
	}
}

// TestBatchSteadyStateZeroAllocs: once the structure is resolved, the plan
// built, and the scratch warm, EvaluateParamBatch must be allocation-free —
// the acceptance criterion for the parameter-sweep hot path.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, Sim: simCfg(obs)}
	ev := New(forcing, obs, consts, opts)

	rng := rand.New(rand.NewSource(37))
	paramSets := make([][]float64, 8)
	for i := range paramSets {
		paramSets[i] = jitterParams(rng, ind.Params)
	}
	cands := proposals(ind, paramSets)
	ev.BeginBatch()
	defer ev.EndBatch()
	ev.EvaluateParamBatch(cands) // warm: derive, compile, plan, scratch
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range cands {
			c.Invalidate()
		}
		ev.EvaluateParamBatch(cands)
	})
	if allocs != 0 {
		t.Fatalf("steady-state EvaluateParamBatch allocates %.1f objects/run; want 0", allocs)
	}
}

// TestExogPlanCountersInSnapshot: the tier-1.5 counters surface through
// the Stats JSON record for the orchestrator's JSONL telemetry.
func TestExogPlanCountersInSnapshot(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Sim: simCfg(obs)})
	ev.BeginBatch()
	for i := 0; i < 3; i++ {
		c := ind.Clone()
		// Distinct parameters per evaluation so tier 2 misses and the
		// simulation (and hence the plan lookup) actually runs each time.
		for j := range c.Params {
			c.Params[j] *= 1 + 0.01*float64(i)
		}
		c.Invalidate()
		ev.Evaluate(c)
	}
	ev.EndBatch()
	snap := ev.Stats()
	if snap.ExogPlanBuilds != 1 {
		t.Fatalf("ExogPlanBuilds = %d, want 1", snap.ExogPlanBuilds)
	}
	if snap.ExogPlanHits != 2 {
		t.Fatalf("ExogPlanHits = %d, want 2 (two reuses of one plan)", snap.ExogPlanHits)
	}
	if snap.RegsHoisted <= 0 {
		t.Fatalf("RegsHoisted = %d, want > 0 for the manual process", snap.RegsHoisted)
	}
}
