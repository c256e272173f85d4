// Lotkavolterra demonstrates the generality of the GMR machinery beyond
// river modeling (the paper's "Application to Other Problems"): a
// predator–prey system whose textbook Lotka–Volterra model is incomplete —
// the true prey growth is seasonally forced — is revised by TAG-guided GP
// using the same tag/gp building blocks as the river case study, with a
// hand-written grammar and evaluator.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/metrics"
	"gmr/internal/tag"
)

// Variable layout: x (prey), y (predator), S (seasonal driver).
var varIdx = map[string]int{"x": 0, "y": 1, "S": 2}

// paramIdx: α, β, γ, δ of the textbook model.
var paramIdx = map[string]int{"Ca": 0, "Cb": 1, "Cg": 2, "Cd": 3}

// grammarLV: the initial processes dx/dt = x(Ca − Cb·y) and
// dy/dt = y(Cd·x − Cg), each extensible multiplicatively (ExtP on prey
// growth, ExtQ on predator loss), with the seasonal driver S and random
// constants available as revision material.
func grammarLV() *tag.Grammar {
	prey := expr.Mul(expr.NewVar("x"),
		expr.Sub(expr.NewParam("Ca").Labeled("ExtP"), expr.Mul(expr.NewParam("Cb"), expr.NewVar("y"))))
	pred := expr.Mul(expr.NewVar("y"),
		expr.Sub(expr.Mul(expr.NewParam("Cd"), expr.NewVar("x")), expr.NewParam("Cg").Labeled("ExtQ")))
	root := expr.Add(prey, pred).Labeled("LV")
	alpha := &tag.ElemTree{Name: "alpha:lv", Kind: tag.Alpha, RootSym: "LV", Root: root}

	g := &tag.Grammar{
		Alphas:  []*tag.ElemTree{alpha},
		Betas:   map[string][]*tag.ElemTree{},
		Lexemes: map[string]tag.LexemeGen{},
	}
	for _, sym := range []string{"ExtP", "ExtQ"} {
		site := "Arg" + sym
		// Connector: multiplicative revision of the rate constant.
		g.Betas[sym] = []*tag.ElemTree{{
			Name: "conn:" + sym, Kind: tag.Beta, RootSym: sym,
			Root: expr.Mul(expr.NewFoot(sym), expr.NewSubSite(site)).Labeled(sym),
		}}
		// Extenders: grow the revision term with + and ×.
		g.Betas[site] = []*tag.ElemTree{
			{Name: "ext:add:" + site, Kind: tag.Beta, RootSym: site,
				Root: expr.Add(expr.NewFoot(site), expr.NewSubSite(site)).Labeled(site)},
			{Name: "ext:mul:" + site, Kind: tag.Beta, RootSym: site,
				Root: expr.Mul(expr.NewFoot(site), expr.NewSubSite(site)).Labeled(site)},
		}
		g.Lexemes[site] = func(rng *rand.Rand) *tag.LexemeChoice {
			if rng.Intn(2) == 0 {
				return &tag.LexemeChoice{Name: "S", Tree: expr.NewVar("S")}
			}
			return &tag.LexemeChoice{Name: "R", Tree: expr.NewLit(rng.Float64())}
		}
	}
	return g
}

// simulate integrates a (possibly revised) system over T days with the
// seasonal driver, returning the prey series.
func simulate(prey, pred *expr.Node, params []float64, T int) []float64 {
	x, y := 4.0, 2.0
	vars := make([]float64, 3)
	out := make([]float64, T)
	const h = 0.05
	for t := 0; t < T; t++ {
		vars[2] = 1 + 0.6*math.Sin(2*math.Pi*float64(t)/120) // seasonal driver
		for s := 0; s < 20; s++ {
			vars[0], vars[1] = x, y
			dx, err1 := prey.Eval(&expr.Env{Vars: vars, Params: params})
			dy, err2 := pred.Eval(&expr.Env{Vars: vars, Params: params})
			if err1 != nil || err2 != nil {
				return nil
			}
			x = clamp(x+h*dx, 1e-3, 1e3)
			y = clamp(y+h*dy, 1e-3, 1e3)
		}
		out[t] = x
	}
	return out
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

// lvEvaluator scores an individual by RMSE of its free-run prey trajectory
// against the observations.
type lvEvaluator struct {
	obs []float64
}

func (e *lvEvaluator) BeginBatch() {}
func (e *lvEvaluator) EndBatch()   {}
func (e *lvEvaluator) Evaluate(ind *gp.Individual) {
	ind.Evaluated, ind.FullEval = true, true
	derived, err := ind.Deriv.Derive()
	if err != nil || derived.Sym != "LV" || len(derived.Kids) != 2 {
		ind.Fitness = math.Inf(1)
		return
	}
	prey, pred := expr.Simplify(derived.Kids[0]), expr.Simplify(derived.Kids[1])
	if expr.Bind(prey, varIdx, paramIdx) != nil || expr.Bind(pred, varIdx, paramIdx) != nil {
		ind.Fitness = math.Inf(1)
		return
	}
	sim := simulate(prey, pred, ind.Params, len(e.obs))
	if sim == nil {
		ind.Fitness = math.Inf(1)
		return
	}
	ind.Fitness = metrics.RMSE(sim, e.obs)
}

func main() {
	// Ground truth: prey growth is seasonally modulated — α·S — which the
	// textbook model omits.
	truthPrey := expr.MustParse("x * (Ca * S - Cb * y)")
	truthPred := expr.MustParse("y * (Cd * x - Cg)")
	if err := expr.Bind(truthPrey, varIdx, paramIdx); err != nil {
		log.Fatal(err)
	}
	if err := expr.Bind(truthPred, varIdx, paramIdx); err != nil {
		log.Fatal(err)
	}
	truthParams := []float64{0.9, 0.4, 0.6, 0.15} // α β γ δ
	const T = 360
	obs := simulate(truthPrey, truthPred, truthParams, T)
	// Light observation noise.
	rng := rand.New(rand.NewSource(5))
	for i := range obs {
		obs[i] *= 1 + 0.03*rng.NormFloat64()
	}

	// Baseline: the textbook model with true rate constants.
	basePrey := expr.MustParse("x * (Ca - Cb * y)")
	basePred := expr.MustParse("y * (Cd * x - Cg)")
	if err := expr.Bind(basePrey, varIdx, paramIdx); err != nil {
		log.Fatal(err)
	}
	if err := expr.Bind(basePred, varIdx, paramIdx); err != nil {
		log.Fatal(err)
	}
	baseline := metrics.RMSE(simulate(basePrey, basePred, truthParams, T), obs)
	fmt.Printf("textbook Lotka–Volterra RMSE: %.3f\n", baseline)

	// Revise with TAG3P.
	g := grammarLV()
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	eng, err := gp.NewEngine(g, &lvEvaluator{obs: obs}, gp.Config{
		PopSize: 80, MaxGen: 30, MinSize: 1, MaxSize: 12, LocalSearchSteps: 3,
		Priors: []gp.Prior{
			{Mean: 0.9, Min: 0.3, Max: 1.5},
			{Mean: 0.4, Min: 0.1, Max: 0.9},
			{Mean: 0.6, Min: 0.2, Max: 1.2},
			{Mean: 0.15, Min: 0.05, Max: 0.5},
		},
		Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	derived, err := res.Best.Deriv.Derive()
	if err != nil {
		log.Fatal(err)
	}
	prey := expr.Simplify(derived.Kids[0])
	fmt.Printf("revised model RMSE:           %.3f\n", res.Best.Fitness)
	fmt.Println("revised prey dynamics: dx/dt =", prey.Pretty())
	usesS := false
	prey.Walk(func(n *expr.Node) bool {
		if n.Kind == expr.Var && n.Name == "S" {
			usesS = true
		}
		return true
	})
	if usesS {
		fmt.Println("→ the revision recruited the seasonal driver S, as in the ground truth")
	}
}
