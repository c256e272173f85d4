package gp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"gmr/internal/expr"
	"gmr/internal/obs"
	"gmr/internal/tag"
)

// testGrammar builds a small symbolic-regression grammar: start from the
// constant 1 (labeled Exp), grow with β: Exp → (Exp* + R↓), R ∈ {0.5, 1, 2}.
func testGrammar() *tag.Grammar {
	alpha := &tag.ElemTree{Name: "a", Kind: tag.Alpha, RootSym: "Exp",
		Root: expr.NewLit(1).Labeled("Exp")}
	beta := &tag.ElemTree{Name: "b:add", Kind: tag.Beta, RootSym: "Exp",
		Root: expr.Add(expr.NewFoot("Exp"), expr.NewSubSite("R")).Labeled("Exp")}
	return &tag.Grammar{
		Alphas: []*tag.ElemTree{alpha},
		Betas:  map[string][]*tag.ElemTree{"Exp": {beta}},
		Lexemes: map[string]tag.LexemeGen{"R": func(rng *rand.Rand) *tag.LexemeChoice {
			vals := []float64{0.5, 1, 2}
			return &tag.LexemeChoice{Name: "R", Tree: expr.NewLit(vals[rng.Intn(len(vals))])}
		}},
	}
}

// valueEvaluator scores an individual by how close its derived expression's
// value is to target (plus a parameter contribution, to exercise Gaussian
// mutation).
type valueEvaluator struct {
	target float64
	evals  atomic.Int64 // the engine evaluates batches concurrently
}

func (v *valueEvaluator) BeginBatch() {}
func (v *valueEvaluator) EndBatch()   {}
func (v *valueEvaluator) Evaluate(ind *Individual) {
	v.evals.Add(1)
	derived, err := ind.Deriv.Derive()
	if err != nil {
		ind.Fitness = math.Inf(1)
		ind.Evaluated = true
		return
	}
	val, err := derived.Eval(&expr.Env{})
	if err != nil {
		ind.Fitness = math.Inf(1)
		ind.Evaluated = true
		return
	}
	for _, p := range ind.Params {
		val += p
	}
	ind.Fitness = math.Abs(val - v.target)
	ind.Evaluated = true
	ind.FullEval = true
}

func smallConfig(seed int64) Config {
	return Config{
		PopSize: 20, MaxGen: 15, MinSize: 1, MaxSize: 12,
		LocalSearchSteps: 2,
		Priors:           []Prior{{Mean: 0.5, Min: 0, Max: 1}},
		Seed:             seed,
		Workers:          1,
	}
}

func TestEngineConvergesOnToyProblem(t *testing.T) {
	g := testGrammar()
	ev := &valueEvaluator{target: 7.25}
	eng, err := NewEngine(g, ev, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness > 0.3 {
		t.Errorf("best fitness %v, expected near-zero on toy problem", res.Best.Fitness)
	}
	if len(res.History) != 16 {
		t.Errorf("history has %d entries, want 16 (init + 15 generations)", len(res.History))
	}
	// Best fitness must be monotone non-increasing across history.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].BestFitness > res.History[i-1].BestFitness+1e-12 {
			t.Errorf("generation %d best fitness worsened: %v → %v",
				i, res.History[i-1].BestFitness, res.History[i].BestFitness)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	g := testGrammar()
	run := func() float64 {
		eng, err := NewEngine(g, &valueEvaluator{target: 5}, smallConfig(42))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Fitness
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave different results: %v vs %v", a, b)
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	g := testGrammar()
	run := func(workers int) float64 {
		cfg := smallConfig(42)
		cfg.Workers = workers
		eng, err := NewEngine(g, &valueEvaluator{target: 5}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Fitness
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("parallel evaluation changed the result: %v vs %v", a, b)
	}
}

func TestSizeBoundsRespected(t *testing.T) {
	g := testGrammar()
	cfg := smallConfig(7)
	cfg.MaxSize = 6
	eng, err := NewEngine(g, &valueEvaluator{target: 100}, cfg) // unreachable target → growth pressure
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range res.Final {
		if s := ind.Size(); s < 1 || s > 6 {
			t.Errorf("final individual size %d outside [1, 6]", s)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := testGrammar()
	ev := &valueEvaluator{}
	if _, err := NewEngine(nil, ev, Config{}); err == nil {
		t.Error("nil grammar accepted")
	}
	if _, err := NewEngine(g, nil, Config{}); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := NewEngine(g, ev, Config{PopSize: 1}); err == nil {
		t.Error("population of 1 accepted")
	}
	if _, err := NewEngine(g, ev, Config{MinSize: 10, MaxSize: 5}); err == nil {
		t.Error("inverted size bounds accepted")
	}
	if _, err := NewEngine(g, ev, Config{Workers: -1}); err == nil {
		t.Error("negative worker count accepted")
	}
}

func makeIndividual(t *testing.T, g *tag.Grammar, seed int64, minSize, maxSize int) *Individual {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := g.RandomDeriv(rng, minSize, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewIndividual(d, []float64{0.5})
}

func TestCrossoverPreservesValidityAndParents(t *testing.T) {
	g := testGrammar()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := makeIndividual(t, g, int64(i), 3, 10)
		b := makeIndividual(t, g, int64(i+1000), 3, 10)
		sa, sb := a.Deriv.String(), b.Deriv.String()
		_ = sa
		_ = sb
		aSize, bSize := a.Size(), b.Size()
		c1, c2 := Crossover(rng, a, b, 1, 12)
		if err := c1.Deriv.Validate(); err != nil {
			t.Fatalf("crossover child 1 invalid: %v", err)
		}
		if err := c2.Deriv.Validate(); err != nil {
			t.Fatalf("crossover child 2 invalid: %v", err)
		}
		if a.Size() != aSize || b.Size() != bSize {
			t.Fatal("crossover mutated a parent")
		}
		if s := c1.Size(); s < 1 || s > 12 {
			t.Fatalf("child size %d outside bounds", s)
		}
		// Node-count conservation: crossover only swaps material.
		if c1.Size()+c2.Size() != aSize+bSize {
			t.Fatalf("crossover changed total size: %d+%d vs %d+%d",
				c1.Size(), c2.Size(), aSize, bSize)
		}
	}
}

func TestSubtreeMutationValidity(t *testing.T) {
	g := testGrammar()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		ind := makeIndividual(t, g, int64(i), 3, 10)
		m := SubtreeMutation(rng, g, ind, 12)
		if err := m.Deriv.Validate(); err != nil {
			t.Fatalf("mutant invalid: %v", err)
		}
		if s := m.Size(); s > 12 {
			t.Fatalf("mutant size %d exceeds max", s)
		}
		if m.Evaluated {
			t.Fatal("mutant still marked evaluated")
		}
	}
}

func TestGaussianMutationRespectsPriors(t *testing.T) {
	g := testGrammar()
	rng := rand.New(rand.NewSource(5))
	priors := []Prior{{Mean: 0.5, Min: 0.2, Max: 0.9}}
	for i := 0; i < 200; i++ {
		ind := makeIndividual(t, g, int64(i), 2, 8)
		m := GaussianMutation(rng, ind, priors, 1.0, 1.0)
		if m.Params[0] < 0.2 || m.Params[0] > 0.9 {
			t.Fatalf("mutated param %v outside prior bounds", m.Params[0])
		}
		// Original untouched.
		if ind.Params[0] != 0.5 {
			t.Fatal("Gaussian mutation modified the parent")
		}
	}
}

func TestGaussianMutationPerturbsRLiterals(t *testing.T) {
	g := testGrammar()
	rng := rand.New(rand.NewSource(6))
	ind := makeIndividual(t, g, 11, 5, 10)
	before := make([]float64, 0)
	for _, l := range ind.RLiterals() {
		before = append(before, l.Val)
	}
	if len(before) < 2 {
		t.Skip("individual has too few R literals for this seed")
	}
	m := GaussianMutation(rng, ind, []Prior{{Mean: 0.5, Min: 0, Max: 1}}, 1.0, 1.0)
	after := m.RLiterals()
	changed := 0
	for i, l := range after {
		if l.Val != before[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("Gaussian mutation left every R literal unchanged")
	}
	// Parent's literals untouched.
	for i, l := range ind.RLiterals() {
		if l.Val != before[i] {
			t.Fatal("Gaussian mutation modified parent literals")
		}
	}
}

func TestInsertionDeletionBounds(t *testing.T) {
	g := testGrammar()
	rng := rand.New(rand.NewSource(8))
	ind := makeIndividual(t, g, 2, 5, 5)
	if got := Insertion(rng, g, ind, ind.Size()); got != nil {
		t.Error("insertion exceeded max size")
	}
	if got := Deletion(rng, ind, ind.Size()); got != nil {
		t.Error("deletion violated min size")
	}
	grown := Insertion(rng, g, ind, 50)
	if grown == nil || grown.Size() != ind.Size()+1 {
		t.Error("insertion did not add exactly one node")
	}
	shrunk := Deletion(rng, ind, 1)
	if shrunk == nil || shrunk.Size() != ind.Size()-1 {
		t.Error("deletion did not remove exactly one node")
	}
}

func TestSigmaRamp(t *testing.T) {
	// MaxGen 40 ramps σ over its final 20 generations.
	cfg := Config{MaxGen: 40}
	e := &Engine{cfg: cfg.withDefaults()}
	if s := e.sigmaScale(0); s != 1 {
		t.Errorf("sigma at gen 0 = %v, want 1", s)
	}
	if s := e.sigmaScale(19); s != 1 {
		t.Errorf("sigma before ramp = %v, want 1", s)
	}
	if s := e.sigmaScale(40); math.Abs(s-0.05) > 1e-12 {
		t.Errorf("sigma at final gen = %v, want 0.05", s)
	}
	if a, b := e.sigmaScale(25), e.sigmaScale(35); a <= b {
		t.Errorf("sigma not decreasing through ramp: %v then %v", a, b)
	}
}

func TestLocalSearchOnlyImproves(t *testing.T) {
	g := testGrammar()
	ev := &valueEvaluator{target: 9}
	cfg := smallConfig(10)
	cfg.LocalSearchSteps = 8
	eng, err := NewEngine(g, ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ind := makeIndividual(t, g, 1, 3, 6)
	ev.Evaluate(ind)
	before := ind.Fitness
	eng.localSearch(ind, rand.New(rand.NewSource(2)))
	if ind.Fitness > before {
		t.Errorf("local search worsened fitness: %v → %v", before, ind.Fitness)
	}
}

// loadSaved reads an individual written by Save back through
// SavedIndividual.Resolve.
func loadSaved(s string, g *tag.Grammar) (*Individual, error) {
	var sm SavedIndividual
	if err := json.Unmarshal([]byte(s), &sm); err != nil {
		return nil, err
	}
	return sm.Resolve(g)
}

func TestIndividualSaveLoad(t *testing.T) {
	g := testGrammar()
	ind := makeIndividual(t, g, 31, 3, 9)
	ind.Params = []float64{0.25}
	var buf strings.Builder
	if err := ind.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := loadSaved(buf.String(), g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Deriv.String() != ind.Deriv.String() {
		t.Fatal("derivation changed through save/load")
	}
	if len(back.Params) != 1 || back.Params[0] != 0.25 {
		t.Fatalf("params changed: %v", back.Params)
	}
	if back.Evaluated {
		t.Error("loaded individual should be unevaluated")
	}
}

func TestInitParamsOverride(t *testing.T) {
	g := testGrammar()
	cfg := smallConfig(3)
	cfg.InitParams = []float64{0.77}
	cfg.MaxGen = 0 // only initialization
	ev := &valueEvaluator{target: 5}
	eng, err := NewEngine(g, ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MaxGen 0 defaults to 100 via withDefaults; instead build engine and
	// check initialParams directly.
	ps := eng.initialParams()
	if len(ps) != 1 || ps[0] != 0.77 {
		t.Errorf("initialParams = %v, want [0.77]", ps)
	}
	// The override returns copies, not the shared slice.
	ps[0] = 0
	if eng.cfg.InitParams[0] != 0.77 {
		t.Error("initialParams aliases the config slice")
	}
}

func TestEliteRefineOnlyImproves(t *testing.T) {
	g := testGrammar()
	ev := &valueEvaluator{target: 3}
	cfg := smallConfig(5)
	cfg.LocalSearchSteps = 5 // 4×5 = 20 refinement steps
	eng, err := NewEngine(g, ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ind := makeIndividual(t, g, 8, 2, 5)
	ev.Evaluate(ind)
	before := ind.Fitness
	eng.stopWorkers = eng.startWorkers() // refinement scores proposals on the pool
	defer eng.Close()
	eng.refineElite(ind, 1.0)
	if ind.Fitness > before {
		t.Errorf("elite refinement worsened fitness: %v → %v", before, ind.Fitness)
	}
}

func TestGaussPerParamSparsity(t *testing.T) {
	// With a tiny per-param probability, most constants stay untouched
	// but at least one always moves.
	g := testGrammar()
	rng := rand.New(rand.NewSource(9))
	priors := make([]Prior, 16)
	for i := range priors {
		priors[i] = Prior{Mean: 0.5, Min: 0, Max: 1}
	}
	ind := makeIndividual(t, g, 2, 1, 3)
	ind.Params = make([]float64, 16)
	for i := range ind.Params {
		ind.Params[i] = 0.5
	}
	totalChanged := 0
	for trial := 0; trial < 100; trial++ {
		m := GaussianMutation(rng, ind, priors, 1.0, 0.01)
		changed := 0
		for i := range m.Params {
			if m.Params[i] != ind.Params[i] {
				changed++
			}
		}
		if changed == 0 && len(m.RLiterals()) == 0 {
			t.Fatal("Gaussian mutation changed nothing")
		}
		totalChanged += changed
	}
	if totalChanged > 400 {
		t.Errorf("per-param 0.01 changed %d params over 100 trials; sparsity broken", totalChanged)
	}
}

// TestEngineRegisterObs: the progress series carry the caller's labels,
// show the engine's progress after a run, and keep one help string per
// family when several engines register on one registry.
func TestEngineRegisterObs(t *testing.T) {
	reg := obs.NewRegistry()
	var engs []*Engine
	for i := 0; i < 2; i++ {
		eng, err := NewEngine(testGrammar(), &valueEvaluator{target: 5}, smallConfig(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterObs(reg, obs.Labels{"island": strconv.Itoa(i)})
		engs = append(engs, eng)
	}
	if _, err := engs[0].Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition([]byte(buf.String())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	p := engs[0].Progress()
	for _, want := range []string{
		fmt.Sprintf(`gmr_gp_generation{island="0"} %d`, p.Gen),
		`gmr_gp_generation{island="1"} 0`,
		fmt.Sprintf(`gmr_gp_evaluations_total{island="0"} %d`, p.Evaluations),
		`gmr_gp_best_fitness{island="1"} +Inf`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# HELP gmr_gp_"); n != 3 {
		t.Errorf("%d gp HELP lines, want 3", n)
	}
}
