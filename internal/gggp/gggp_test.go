package gggp

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/grammar"
	"gmr/internal/metrics"
)

func testFitness(t *testing.T) (func(phy, zoo *expr.Node, params []float64) float64, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 9, StartYear: 2000, EndYear: 2001, TrainEndYear: 2000})
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	return func(phy, zoo *expr.Node, params []float64) float64 {
		phy, zoo = expr.Simplify(phy), expr.Simplify(zoo)
		if err := grammar.BindSystem(phy, zoo, consts); err != nil {
			return math.Inf(1)
		}
		sys, err := bio.NewSegSystem(phy, zoo)
		if err != nil {
			return math.Inf(1)
		}
		return metrics.RMSE(sys.Predict(forcing, params, sim), obs)
	}, ds
}

func TestGrowExprRespectsGrammar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exts := grammar.DefaultExtensions()
	for _, e := range exts {
		allowed := map[string]bool{}
		for _, v := range e.Vars {
			allowed[v] = true
		}
		for i := 0; i < 200; i++ {
			n := growExpr(rng, e, 4)
			if err := n.Validate(); err != nil {
				t.Fatalf("Ext%d grew invalid expression: %v", e.ID, err)
			}
			n.Walk(func(m *expr.Node) bool {
				if m.Kind == expr.Var && !allowed[m.Name] {
					t.Errorf("Ext%d expression uses disallowed variable %s", e.ID, m.Name)
				}
				if m.Kind == expr.Param {
					t.Errorf("Ext%d expression references a model constant", e.ID)
				}
				return true
			})
		}
	}
}

func TestAssembleWrapsExtensionPoints(t *testing.T) {
	exts := grammar.DefaultExtensions()
	ind := &Individual{
		Slots:  map[int]*expr.Node{1: expr.NewVar("Vph"), 9: expr.NewVar("Vtmp")},
		Params: bio.Means(bio.DefaultConstants()),
	}
	phy, zoo, err := Assemble(ind, exts)
	if err != nil {
		t.Fatal(err)
	}
	// Ext1 is additive on the whole dBPhy RHS.
	if phy.Op != expr.OpAdd {
		t.Errorf("Ext1 revision should wrap dBPhy with +, got %s", phy.Op)
	}
	hasVtmpFactor := false
	zoo.Walk(func(n *expr.Node) bool {
		if n.Kind == expr.Binary && n.Op == expr.OpMul && len(n.Kids) == 2 {
			if n.Kids[1].Kind == expr.Var && n.Kids[1].Name == "Vtmp" && n.Kids[0].Sym == "Ext9" {
				hasVtmpFactor = true
			}
		}
		return true
	})
	if !hasVtmpFactor {
		t.Error("Ext9 revision (× Vtmp) not found in assembled dBZoo")
	}
	// Empty individual assembles to the manual process exactly.
	empty := &Individual{Slots: map[int]*expr.Node{}, Params: ind.Params}
	p0, z0, err := Assemble(empty, exts)
	if err != nil {
		t.Fatal(err)
	}
	if p0.String() != bio.PhyDeriv().String() || z0.String() != bio.ZooDeriv().String() {
		t.Error("empty revision set does not assemble to the manual process")
	}
}

func TestRunImprovesOverManual(t *testing.T) {
	fitness, _ := testFitness(t)
	manual := fitness(bio.PhyDeriv(), bio.ZooDeriv(), bio.Means(bio.DefaultConstants()))
	best, err := Run(Config{PopSize: 40, MaxGen: 8, Seed: 3}, fitness)
	if err != nil {
		t.Fatal(err)
	}
	if best.Fitness >= manual {
		t.Errorf("GGGP best %v did not improve on manual %v", best.Fitness, manual)
	}
	if math.IsInf(best.Fitness, 1) {
		t.Error("GGGP returned an unevaluated best")
	}
}

func TestRunDeterminism(t *testing.T) {
	fitness, _ := testFitness(t)
	run := func() float64 {
		best, err := Run(Config{PopSize: 20, MaxGen: 4, Seed: 5}, fitness)
		if err != nil {
			t.Fatal(err)
		}
		return best.Fitness
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed gave %v then %v", a, b)
	}
}

func TestRunRequiresFitness(t *testing.T) {
	if _, err := Run(Config{PopSize: 4, MaxGen: 1}, nil); err == nil {
		t.Error("nil fitness accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	ind := &Individual{
		Slots:  map[int]*expr.Node{1: expr.Add(expr.NewVar("Vph"), expr.NewLit(2))},
		Params: []float64{1, 2, 3},
	}
	cp := ind.Clone()
	cp.Slots[1].Kids[1].Val = 99
	cp.Params[0] = 99
	if ind.Slots[1].Kids[1].Val == 99 || ind.Params[0] == 99 {
		t.Error("Clone shares state with original")
	}
}

func TestCrossoverPreservesSlotTyping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	exts := grammar.DefaultExtensions()
	extByID := map[int]grammar.Extension{}
	for _, e := range exts {
		extByID[e.ID] = e
	}
	mk := func(seed int64) *Individual {
		r := rand.New(rand.NewSource(seed))
		ind := &Individual{Slots: map[int]*expr.Node{}, Params: []float64{0}}
		for _, e := range exts[:3] {
			ind.Slots[e.ID] = growExpr(r, e, 3)
		}
		return ind
	}
	for i := 0; i < 100; i++ {
		c := crossover(rng, mk(int64(i)), mk(int64(i+999)))
		for id, root := range c.Slots {
			allowed := map[string]bool{}
			for _, v := range extByID[id].Vars {
				allowed[v] = true
			}
			root.Walk(func(n *expr.Node) bool {
				if n.Kind == expr.Var && !allowed[n.Name] {
					t.Fatalf("crossover moved %s into Ext%d", n.Name, id)
				}
				return true
			})
		}
	}
}
