package gp

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/grammar"
)

// runStepwise drives an engine gen by gen, optionally pausing at pauseGen to
// snapshot, JSON round-trip, and resume into a fresh engine.
func runStepwise(t *testing.T, seed int64, maxGen, pauseGen int) *Result {
	t.Helper()
	g := testGrammar()
	cfg := smallConfig(seed)
	cfg.MaxGen = maxGen
	eng, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	for eng.gen < maxGen {
		if err := eng.StepGen(); err != nil {
			t.Fatal(err)
		}
		if eng.gen == pauseGen {
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			eng.Close()
			var back EngineSnapshot
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			resumed, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(&back); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Start(); err != nil {
				t.Fatal(err)
			}
			eng = resumed
		}
	}
	res := eng.Result()
	eng.Close()
	return res
}

func TestSnapshotResumeBitwiseDeterministic(t *testing.T) {
	const gens = 12
	straight := runStepwise(t, 42, gens, -1)
	resumed := runStepwise(t, 42, gens, gens/2)

	if a, b := math.Float64bits(straight.Best.Fitness), math.Float64bits(resumed.Best.Fitness); a != b {
		t.Fatalf("best fitness diverged: %x vs %x (%v vs %v)",
			a, b, straight.Best.Fitness, resumed.Best.Fitness)
	}
	if a, b := straight.Best.Deriv.String(), resumed.Best.Deriv.String(); a != b {
		t.Fatalf("best structure diverged:\n  %s\n  %s", a, b)
	}
	if len(straight.History) != len(resumed.History) {
		t.Fatalf("history length %d vs %d", len(straight.History), len(resumed.History))
	}
	for i := range straight.History {
		a, b := straight.History[i], resumed.History[i]
		if math.Float64bits(a.BestFitness) != math.Float64bits(b.BestFitness) ||
			math.Float64bits(a.MeanFitness) != math.Float64bits(b.MeanFitness) ||
			a.BestSize != b.BestSize || a.Evaluations != b.Evaluations {
			t.Fatalf("history diverged at gen %d:\n  %+v\n  %+v", i, a, b)
		}
	}
	if len(straight.Final) != len(resumed.Final) {
		t.Fatalf("final population size %d vs %d", len(straight.Final), len(resumed.Final))
	}
	for i := range straight.Final {
		a, b := straight.Final[i], resumed.Final[i]
		if math.Float64bits(a.Fitness) != math.Float64bits(b.Fitness) {
			t.Fatalf("final[%d] fitness diverged: %v vs %v", i, a.Fitness, b.Fitness)
		}
		if a.Deriv.String() != b.Deriv.String() {
			t.Fatalf("final[%d] structure diverged", i)
		}
		for j := range a.Params {
			if math.Float64bits(a.Params[j]) != math.Float64bits(b.Params[j]) {
				t.Fatalf("final[%d] param %d diverged: %v vs %v", i, j, a.Params[j], b.Params[j])
			}
		}
	}
}

func TestStepSurfaceMatchesRun(t *testing.T) {
	g := testGrammar()
	cfg := smallConfig(11)
	eng1, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := eng1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Start(); err != nil {
		t.Fatal(err)
	}
	for eng2.gen < cfg.MaxGen {
		if err := eng2.StepGen(); err != nil {
			t.Fatal(err)
		}
	}
	res2 := eng2.Result()
	eng2.Close()
	if res1.Best.Fitness != res2.Best.Fitness {
		t.Errorf("Run vs stepwise best fitness: %v vs %v", res1.Best.Fitness, res2.Best.Fitness)
	}
	if res1.Evaluations != res2.Evaluations {
		t.Errorf("Run vs stepwise evaluations: %d vs %d", res1.Evaluations, res2.Evaluations)
	}
}

func TestSnapshotRestoreValidation(t *testing.T) {
	g := testGrammar()
	cfg := smallConfig(1)
	eng, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot(); err == nil {
		t.Error("snapshot of unstarted engine accepted")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Engine {
		e, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if err := fresh().Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	bad := *snap
	bad.Version = 99
	if err := fresh().Restore(&bad); err == nil {
		t.Error("wrong snapshot version accepted")
	}
	bad = *snap
	bad.Population = bad.Population[:1]
	if err := fresh().Restore(&bad); err == nil {
		t.Error("population size mismatch accepted")
	}
	if err := eng.Restore(snap); err == nil {
		t.Error("restore into a started engine accepted")
	}
}

func TestReplaceWorstInjectsMigrants(t *testing.T) {
	g := testGrammar()
	cfg := smallConfig(6)
	eng, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	migrant := eng.Population()[0].Clone()
	migrant.Fitness = eng.best.Fitness / 2 // strictly better than anything resident
	if migrant.Fitness == eng.best.Fitness {
		migrant.Fitness = eng.best.Fitness - 1
	}
	n := eng.ReplaceWorst([]*Individual{migrant})
	if n != 1 {
		t.Fatalf("replaced %d, want 1", n)
	}
	if eng.Population()[0].Fitness != migrant.Fitness {
		t.Errorf("migrant not at head of sorted population: %v vs %v",
			eng.Population()[0].Fitness, migrant.Fitness)
	}
	if eng.best.Fitness != migrant.Fitness {
		t.Errorf("best-ever not updated by migrant: %v vs %v", eng.best.Fitness, migrant.Fitness)
	}
	// Elites are never displaced: injecting more migrants than
	// PopSize-eliteSize is clamped.
	many := make([]*Individual, cfg.PopSize+5)
	for i := range many {
		many[i] = migrant.Clone()
	}
	if n := eng.ReplaceWorst(many); n != cfg.PopSize-eliteSize {
		t.Errorf("clamp replaced %d, want %d", n, cfg.PopSize-eliteSize)
	}
}

// TestSavedIndividualPropertyRoundTrip is the property-style round-trip test
// over the real river grammar: ~100 random derivations must survive
// Save (read back through SavedIndividual.Resolve) and the checkpoint path
// Saved/Resolve with the derivation, the canonical simplified structure
// key, bit-identical parameters, and the evaluation state preserved.
func TestSavedIndividualPropertyRoundTrip(t *testing.T) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	rng := rand.New(rand.NewSource(20260806))

	structKey := func(ind *Individual) string {
		derived, err := ind.Deriv.Derive()
		if err != nil {
			t.Fatalf("derive: %v", err)
		}
		phy, zoo, err := grammar.SplitSystem(derived)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		return expr.Simplify(phy).String() + "|" + expr.Simplify(zoo).String()
	}

	for trial := 0; trial < 100; trial++ {
		d, err := g.RandomDeriv(rng, 2, 2+rng.Intn(28))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		params := make([]float64, len(consts))
		for i, c := range consts {
			// Irregular values exercise float round-tripping harder
			// than the tidy Table III means.
			params[i] = c.Min + (c.Max-c.Min)*rng.Float64()*(1+1e-13)
		}
		ind := NewIndividual(d, params)
		// Perturb R literals so lexeme round-tripping is exercised on
		// full-precision floats, not just grammar-supplied constants.
		for _, lit := range ind.RLiterals() {
			lit.Val *= 1 + (rng.Float64()-0.5)*1e-9
		}
		ind.Fitness = rng.NormFloat64()
		ind.Evaluated = true
		ind.FullEval = trial%2 == 0

		var buf strings.Builder
		if err := ind.Save(&buf); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		back, err := loadSaved(buf.String(), g)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if a, b := ind.Deriv.String(), back.Deriv.String(); a != b {
			t.Fatalf("trial %d: derivation changed:\n  %s\n  %s", trial, a, b)
		}
		if a, b := structKey(ind), structKey(back); a != b {
			t.Fatalf("trial %d: canonical structure key changed:\n  %s\n  %s", trial, a, b)
		}
		if len(back.Params) != len(ind.Params) {
			t.Fatalf("trial %d: params length %d vs %d", trial, len(back.Params), len(ind.Params))
		}
		for i := range ind.Params {
			if math.Float64bits(back.Params[i]) != math.Float64bits(ind.Params[i]) {
				t.Fatalf("trial %d: param %d not bit-identical: %v vs %v",
					trial, i, back.Params[i], ind.Params[i])
			}
		}
		if math.Float64bits(back.Fitness) != math.Float64bits(ind.Fitness) ||
			back.Evaluated != ind.Evaluated || back.FullEval != ind.FullEval {
			t.Fatalf("trial %d: evaluation state changed through Save: %+v", trial, back)
		}

		// Checkpoint path: Saved/Resolve restores evaluation state exactly.
		saved, err := ind.Saved()
		if err != nil {
			t.Fatalf("trial %d: saved: %v", trial, err)
		}
		blob, err := json.Marshal(saved)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var sBack SavedIndividual
		if err := json.Unmarshal(blob, &sBack); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		restored, err := sBack.Resolve(g)
		if err != nil {
			t.Fatalf("trial %d: resolve: %v", trial, err)
		}
		if math.Float64bits(restored.Fitness) != math.Float64bits(ind.Fitness) ||
			restored.Evaluated != ind.Evaluated || restored.FullEval != ind.FullEval {
			t.Fatalf("trial %d: evaluation state changed: %+v", trial, restored)
		}
	}
}

// TestSavedIndividualInfFitness checks the ±Inf edge: an invalid model's
// +Inf fitness must survive the checkpoint round-trip (plain JSON floats
// cannot encode it; fitness travels as Float64bits).
func TestSavedIndividualInfFitness(t *testing.T) {
	g := testGrammar()
	ind := makeIndividual(t, g, 5, 2, 6)
	ind.Fitness = math.Inf(1)
	ind.Evaluated = true
	saved, err := ind.Saved()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	var back SavedIndividual
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := back.Resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(restored.Fitness, 1) || !restored.Evaluated {
		t.Errorf("+Inf fitness lost: %+v", restored)
	}
}
