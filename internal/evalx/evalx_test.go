package evalx

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/tag"
)

// smallData builds a short synthetic window for cheap evaluation tests.
func smallData(t testing.TB) (forcing [][]float64, obs []float64, consts []bio.Constant) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2001, TrainEndYear: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants()
}

func simCfg(obs []float64) bio.SimConfig {
	return bio.SimConfig{SubSteps: 2, Phy0: obs[0], Zoo0: 1.5}
}

func manualInd(t *testing.T) (*gp.Individual, *tag.Grammar) {
	t.Helper()
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	root := &tag.DerivNode{Elem: g.Alphas[0]}
	return gp.NewIndividual(root, bio.Means(bio.DefaultConstants())), g
}

func randomInd(t *testing.T, g *tag.Grammar, seed int64) *gp.Individual {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := g.RandomDeriv(rng, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	return gp.NewIndividual(d, bio.Means(bio.DefaultConstants()))
}

func TestEvaluateSetsFitness(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, Options{Sim: simCfg(obs)})
	ind, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(ind)
	ev.EndBatch()
	if !ind.Evaluated || !ind.FullEval {
		t.Fatal("manual individual not fully evaluated")
	}
	if math.IsNaN(ind.Fitness) {
		t.Fatal("fitness is NaN")
	}
	if ind.Fitness <= 0 {
		t.Fatalf("fitness %v, want positive RMSE", ind.Fitness)
	}
}

// TestSpeedupsPreserveFitness: for fully evaluated individuals, every
// speedup combination must give the same fitness as the plain evaluator.
func TestSpeedupsPreserveFitness(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]*gp.Individual, 12)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(i))
	}
	plain := New(forcing, obs, consts, Options{Sim: simCfg(obs)})
	ref := make([]float64, len(inds))
	plain.BeginBatch()
	for i, ind := range inds {
		c := ind.Clone()
		plain.Evaluate(c)
		ref[i] = c.Fitness
	}
	plain.EndBatch()

	combos := []Options{
		{UseCache: true},
		{UseCompile: true},
		{Simplify: true},
		{UseCache: true, UseCompile: true, Simplify: true},
	}
	for ci, opt := range combos {
		opt.Sim = simCfg(obs)
		ev := New(forcing, obs, consts, opt)
		ev.BeginBatch()
		for i, ind := range inds {
			c := ind.Clone()
			ev.Evaluate(c)
			if c.Fitness != ref[i] && !(math.IsInf(c.Fitness, 1) && math.IsInf(ref[i], 1)) {
				// Simplification may alter floating-point association;
				// allow tiny relative drift only when Simplify is on.
				relOK := opt.Simplify && math.Abs(c.Fitness-ref[i]) < 1e-6*(1+math.Abs(ref[i]))
				if !relOK {
					t.Errorf("combo %d individual %d: fitness %v != reference %v", ci, i, c.Fitness, ref[i])
				}
			}
		}
		ev.EndBatch()
	}
}

func TestCacheHitsOnRepeatEvaluation(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, Sim: simCfg(obs)})
	ind, _ := manualInd(t)
	ev.BeginBatch()
	a := ind.Clone()
	ev.Evaluate(a)
	b := ind.Clone()
	ev.Evaluate(b)
	ev.EndBatch()
	st := ev.Stats()
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
	if a.Fitness != b.Fitness {
		t.Errorf("cached fitness differs: %v vs %v", a.Fitness, b.Fitness)
	}
	// Different parameters must not hit the cache.
	c := ind.Clone()
	c.Params[0] *= 1.01
	ev.BeginBatch()
	ev.Evaluate(c)
	ev.EndBatch()
	if ev.Stats().CacheHits != 1 {
		t.Error("cache hit despite different parameters")
	}
}

func TestSimplifyRaisesCacheHitRate(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	// Two individuals whose derivations differ but whose simplified
	// processes coincide: manual, and manual + connector adding R=0
	// (simplifies away: x + 0 → x).
	rng := rand.New(rand.NewSource(1))
	plain := &tag.DerivNode{Elem: g.Alphas[0]}
	withZero := plain.Clone()
	conn := g.Betas["Ext1"][0]
	child, err := g.NewNode(rng, conn, tag.Address{0})
	if err != nil {
		t.Fatal(err)
	}
	child.Lexemes = child.Lexemes[:0]
	for range conn.SubSiteSyms() {
		child.Lexemes = append(child.Lexemes, expr.NewLit(0))
	}
	withZero.Children = append(withZero.Children, child)

	params := bio.Means(consts)
	ev := New(forcing, obs, consts, Options{UseCache: true, Simplify: true, Sim: simCfg(obs)})
	ev.BeginBatch()
	ev.Evaluate(gp.NewIndividual(plain, params))
	ev.Evaluate(gp.NewIndividual(withZero, params))
	ev.EndBatch()
	if ev.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (simplification should collapse +0 revision)", ev.Stats().CacheHits)
	}
}

func TestShortCircuitSavesStepsWithoutChangingBest(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]*gp.Individual, 30)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(100+i))
	}
	run := func(opt Options) (best float64, steps int) {
		opt.Sim = simCfg(obs)
		ev := New(forcing, obs, consts, opt)
		best = math.Inf(1)
		// Sequential batches of 1 so ES can use prior results.
		for _, ind := range inds {
			c := ind.Clone()
			ev.BeginBatch()
			ev.Evaluate(c)
			ev.EndBatch()
			if c.FullEval && c.Fitness < best {
				best = c.Fitness
			}
		}
		return best, ev.Stats().StepsEvaluated
	}
	bestPlain, stepsPlain := run(Options{})
	bestES, stepsES := run(Options{UseShortCircuit: true})
	if stepsES >= stepsPlain {
		t.Errorf("short-circuiting did not reduce steps: %d vs %d", stepsES, stepsPlain)
	}
	if bestES != bestPlain {
		t.Errorf("short-circuiting changed the best full fitness: %v vs %v", bestES, bestPlain)
	}
}

func TestShortCircuitThresholdEagerness(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]*gp.Individual, 40)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(500+i))
	}
	steps := func(th float64) int {
		ev := New(forcing, obs, consts, Options{UseShortCircuit: true, Threshold: th, Sim: simCfg(obs)})
		for _, ind := range inds {
			c := ind.Clone()
			ev.BeginBatch()
			ev.Evaluate(c)
			ev.EndBatch()
		}
		return ev.Stats().StepsEvaluated
	}
	eager, normal, lax := steps(0.7), steps(1.0), steps(1.3)
	if !(eager <= normal && normal <= lax) {
		t.Errorf("steps not monotone in threshold: 0.7→%d 1.0→%d 1.3→%d", eager, normal, lax)
	}
	if eager == lax {
		t.Error("threshold had no effect at all")
	}
}

func TestBatchFreezeDeterminism(t *testing.T) {
	// Within one batch, evaluation results must not depend on order:
	// the ES reference is frozen at batch start.
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]*gp.Individual, 10)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(900+i))
	}
	eval := func(order []int) []float64 {
		ev := New(forcing, obs, consts, Options{UseShortCircuit: true, Sim: simCfg(obs)})
		// Prime the reference with one full evaluation.
		ev.BeginBatch()
		p := inds[0].Clone()
		ev.Evaluate(p)
		ev.EndBatch()
		out := make([]float64, len(inds))
		ev.BeginBatch()
		for _, i := range order {
			c := inds[i].Clone()
			ev.Evaluate(c)
			out[i] = c.Fitness
		}
		ev.EndBatch()
		return out
	}
	fwd := eval([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	rev := eval([]int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Errorf("individual %d: order-dependent fitness %v vs %v", i, fwd[i], rev[i])
		}
	}
}

func TestCompiledModelMatchesEvaluatorFitness(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	ev := New(forcing, obs, consts, Options{UseCompile: true, Simplify: true, Sim: simCfg(obs)})
	ev.BeginBatch()
	ev.Evaluate(ind)
	ev.EndBatch()
	m, err := Compile(ind, consts)
	if err != nil {
		t.Fatal(err)
	}
	preds := m.Predict(forcing, ind.Params, simCfg(obs))
	var sse float64
	for i := range preds {
		d := preds[i] - obs[i]
		sse += d * d
	}
	rmse := math.Sqrt(sse / float64(len(preds)))
	if math.Abs(rmse-ind.Fitness) > 1e-9*(1+ind.Fitness) {
		t.Errorf("compiled model RMSE %v != evaluator fitness %v", rmse, ind.Fitness)
	}
}

func TestModelExprs(t *testing.T) {
	ind, _ := manualInd(t)
	phy, zoo, err := ModelExprs(ind)
	if err != nil {
		t.Fatal(err)
	}
	if phy == nil || zoo == nil {
		t.Fatal("nil expressions")
	}
	if !phy.Complete() || !zoo.Complete() {
		t.Error("model expressions not completed trees")
	}
}

func TestMinFracDelaysShortCircuit(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]*gp.Individual, 20)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(700+i))
	}
	// Every short-circuited evaluation must have run at least minFrac of
	// the cases.
	ev := New(forcing, obs, consts, Options{UseShortCircuit: true, Sim: simCfg(obs)})
	minSteps := int(minFrac * float64(len(obs)))
	prim := inds[0].Clone()
	ev.BeginBatch()
	ev.Evaluate(prim)
	ev.EndBatch()
	for _, ind := range inds[1:] {
		before := ev.Stats().StepsEvaluated
		c := ind.Clone()
		ev.BeginBatch()
		ev.Evaluate(c)
		ev.EndBatch()
		ran := ev.Stats().StepsEvaluated - before
		if ran > 0 && ran < minSteps {
			t.Fatalf("evaluation stopped after %d steps, below minFrac %d", ran, minSteps)
		}
	}
	if ev.Stats().ShortCircuits == 0 {
		t.Fatal("no evaluation short-circuited; the minFrac gate was never exercised")
	}
}

// TestEngineDeterminismAcrossWorkerCounts runs the full TAG3P engine with
// the real evaluator (all speedups on) at Workers=1 and Workers=8 and the
// same seed. Results must be bitwise identical: the batch-frozen
// short-circuit reference, the pre-split per-individual RNG streams, and
// the order-independent cache semantics together guarantee that worker
// count never changes the search trajectory (ISSUE 1 acceptance
// criterion; run under -race this also exercises the sharded cache and
// the shared compiled programs concurrently).
func TestEngineDeterminismAcrossWorkerCounts(t *testing.T) {
	forcing, obs, consts := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	priors := make([]gp.Prior, len(consts))
	for i, c := range consts {
		priors[i] = gp.Prior{Mean: c.Mean, Min: c.Min, Max: c.Max}
	}
	runWith := func(workers int) *gp.Result {
		ev := New(forcing, obs, consts, Options{
			UseCache: true, UseCompile: true, Simplify: true, UseShortCircuit: true,
			Sim: simCfg(obs),
		})
		eng, err := gp.NewEngine(g, ev, gp.Config{
			PopSize: 16, MaxGen: 4, LocalSearchSteps: 1,
			Priors: priors, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runWith(1), runWith(8)
	if a.Best.Fitness != b.Best.Fitness {
		t.Errorf("best fitness differs across worker counts: %v vs %v", a.Best.Fitness, b.Best.Fitness)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history length differs: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Errorf("generation %d stats differ: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluation counts differ: %d vs %d", a.Evaluations, b.Evaluations)
	}
}

// TestStatsAdd: Add sums every counterTable row and re-derives the misses
// (clamped at zero) and hit rates of the sum; the table binds each counter
// field of Stats exactly once.
func TestStatsAdd(t *testing.T) {
	var a Stats
	for i, row := range counterTable {
		*row.field(&a) = i + 1
	}
	seen := map[int]bool{}
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case name == "Tier1Misses" || name == "Tier2Misses" || f.Kind() == reflect.Float64:
		case f.Kind() == reflect.Array:
			for j := 0; j < f.Len(); j++ {
				seen[int(f.Index(j).Int())] = true
			}
		default:
			if seen[int(f.Int())] || f.Int() == 0 {
				t.Errorf("Stats.%s is not bound to its own counterTable row", name)
			}
			seen[int(f.Int())] = true
		}
	}
	if len(seen) != int(numCounters) {
		t.Errorf("counterTable binds %d distinct fields, want %d", len(seen), numCounters)
	}

	a.Evaluations, a.Tier1Hits, a.CacheHits = 8, 6, 10
	b := a
	a.Add(b)
	for i, row := range counterTable {
		if got, want := *row.field(&a), 2**row.field(&b); got != want {
			t.Errorf("row %d (%s): Add gave %d, want %d", i, row.name, got, want)
		}
	}
	if a.Tier1Misses != 4 || a.Tier2Misses != 0 {
		t.Errorf("misses %d/%d, want 4/0 (tier 2 clamped)", a.Tier1Misses, a.Tier2Misses)
	}
	if a.Tier1HitRate != 0.75 || a.Tier2HitRate != 1.25 {
		t.Errorf("hit rates %v/%v, want 0.75/1.25", a.Tier1HitRate, a.Tier2HitRate)
	}
}

// TestTierOneSkipsDeriveAndCompile pins the tentpole acceptance criterion:
// a parameter-only re-evaluation of a known structure must not re-derive or
// re-compile (ISSUE 1: "verify via a compile-counter stat in the test").
func TestTierOneSkipsDeriveAndCompile(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Simplify: true, Sim: simCfg(obs)})
	ind, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(ind)
	for i := 0; i < 5; i++ {
		ind.Params[0] *= 1.001 // unique params: tier-2 miss, tier-1 hit
		ind.Invalidate()
		ev.Evaluate(ind)
	}
	ev.EndBatch()
	st := ev.Stats()
	if st.Derives != 1 || st.Compiles != 1 {
		t.Errorf("param-only re-evals re-ran the pipeline: derives=%d compiles=%d, want 1 each", st.Derives, st.Compiles)
	}
	if st.Tier1Hits != 5 {
		t.Errorf("tier-1 hits = %d, want 5", st.Tier1Hits)
	}
	if st.CacheHits != 0 {
		t.Errorf("tier-2 hits = %d, want 0 (params were unique)", st.CacheHits)
	}
	// A structural change must invalidate the memoized key and re-derive,
	// and a fresh clone of the same structure must still hit tier 1 via
	// the rendered canonical key even without the memo.
	fresh, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(fresh)
	ev.EndBatch()
	st = ev.Stats()
	if st.Compiles != 1 {
		t.Errorf("fresh individual with identical structure recompiled: compiles=%d", st.Compiles)
	}
	if st.Derives != 2 {
		t.Errorf("fresh individual must re-derive once to build its key: derives=%d", st.Derives)
	}
}

func TestSnapshotCountersAndJSON(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Simplify: true, Sim: simCfg(obs)})

	inds := make([]*gp.Individual, 8)
	for i := range inds {
		inds[i] = randomInd(t, g, int64(40+i))
	}
	ev.BeginBatch()
	// Round 1: all cold. Round 2: same structures and params → tier-2 hits.
	// Round 3: same structures, jittered params → tier-1 hits, tier-2 misses.
	for round := 0; round < 3; round++ {
		for _, ind := range inds {
			c := ind.Clone()
			if round == 2 {
				c.Params[0] *= 1 + 1e-9
			}
			c.Invalidate()
			ev.Evaluate(c)
		}
	}
	ev.EndBatch()

	snap := ev.Stats()
	if snap.Evaluations != 24 {
		t.Fatalf("evaluations = %d, want 24", snap.Evaluations)
	}
	if snap.Tier1Hits+snap.Tier1Misses != snap.Evaluations {
		t.Errorf("tier-1 hits %d + misses %d != evaluations %d",
			snap.Tier1Hits, snap.Tier1Misses, snap.Evaluations)
	}
	if snap.CacheHits+snap.Tier2Misses != snap.Evaluations {
		t.Errorf("tier-2 hits %d + misses %d != evaluations %d",
			snap.CacheHits, snap.Tier2Misses, snap.Evaluations)
	}
	if snap.CacheHits < 8 {
		t.Errorf("tier-2 hits = %d, want ≥ 8 (round 2 repeats round 1 exactly)", snap.CacheHits)
	}
	if snap.Tier1Hits < snap.CacheHits {
		t.Errorf("tier-1 hits %d < tier-2 hits %d; jittered params should still hit tier 1",
			snap.Tier1Hits, snap.CacheHits)
	}
	if r := snap.Tier1HitRate; r <= 0 || r > 1 {
		t.Errorf("tier-1 hit rate %v outside (0, 1]", r)
	}

	// The snapshot must survive a JSON round-trip unchanged (it feeds the
	// orchestrator's JSONL telemetry).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != snap {
		t.Errorf("snapshot changed through JSON round-trip:\n  %+v\n  %+v", back, snap)
	}
}

func TestShortCircuitRefRoundTrip(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, Options{UseShortCircuit: true, Sim: simCfg(obs)})
	if ref := ev.ShortCircuitRef(); !math.IsInf(ref, 1) {
		t.Fatalf("fresh evaluator reference = %v, want +Inf", ref)
	}
	ind, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(ind)
	ev.EndBatch()
	ref := ev.ShortCircuitRef()
	if ref != ind.Fitness {
		t.Fatalf("committed reference %v != full fitness %v", ref, ind.Fitness)
	}
	// A fresh evaluator with the restored reference reports the same state.
	ev2 := New(forcing, obs, consts, Options{UseShortCircuit: true, Sim: simCfg(obs)})
	ev2.SetShortCircuitRef(ref)
	if got := ev2.ShortCircuitRef(); got != ref {
		t.Fatalf("restored reference %v != %v", got, ref)
	}
}
