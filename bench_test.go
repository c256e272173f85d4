package gmr

// Benchmarks, one family per table/figure of the paper's evaluation. They
// measure the core workload of each experiment at a small, fixed scale;
// the full tables are regenerated by cmd/riverbench (see EXPERIMENTS.md).
//
//	BenchmarkTableV_*   one fitting pass per method (Table V / Figure 1)
//	BenchmarkFig9_*     the variable-selectivity analysis (Figure 9)
//	BenchmarkFig10_*    per-individual evaluation under each speedup combo
//	BenchmarkFig11_*    evaluation workloads across ES thresholds (Figure 11)

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gmr/internal/arimax"
	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/expr"
	"gmr/internal/gggp"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/metrics"
	"gmr/internal/qual2e"
	"gmr/internal/rnn"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
)

// benchData is a three-year dataset (two train, one test), generated once.
func benchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	return benchDS
}

func benchSim(ds *dataset.Dataset) bio.SimConfig {
	return dataset.ModelSimConfig(2, ds.ObsPhy[0], ds.ObsZoo[0])
}

// ---- Table V / Figure 1 ----

func BenchmarkTableV_Manual(b *testing.B) {
	ds := benchData(b)
	phy, zoo, consts, err := bio.ManualSystem()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	params := bio.Means(consts)
	sim := benchSim(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds := sys.Predict(ds.TrainForcing(), params, sim)
		if metrics.RMSE(preds, ds.TrainObsPhy()) < 0 {
			b.Fatal("impossible")
		}
	}
}

func benchCalibrator(b *testing.B, c calib.Calibrator) {
	ds := benchData(b)
	obj, err := calib.RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), benchSim(ds))
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := calib.Box(bio.DefaultConstants())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRand(int64(i + 1))
		_, f := c.Calibrate(obj, lo, hi, 200, rng)
		if math.IsNaN(f) {
			b.Fatal("NaN objective")
		}
	}
}

func BenchmarkTableV_Calib_GA(b *testing.B)    { benchCalibrator(b, calib.NewGA()) }
func BenchmarkTableV_Calib_MC(b *testing.B)    { benchCalibrator(b, calib.NewMC()) }
func BenchmarkTableV_Calib_LHS(b *testing.B)   { benchCalibrator(b, calib.NewLHS()) }
func BenchmarkTableV_Calib_MLE(b *testing.B)   { benchCalibrator(b, calib.NewMLE()) }
func BenchmarkTableV_Calib_MCMC(b *testing.B)  { benchCalibrator(b, calib.NewMCMC()) }
func BenchmarkTableV_Calib_SA(b *testing.B)    { benchCalibrator(b, calib.NewSA()) }
func BenchmarkTableV_Calib_DREAM(b *testing.B) { benchCalibrator(b, calib.NewDREAM()) }
func BenchmarkTableV_Calib_SCEUA(b *testing.B) { benchCalibrator(b, calib.NewSCEUA()) }
func BenchmarkTableV_Calib_DEMCz(b *testing.B) { benchCalibrator(b, calib.NewDEMCZ()) }

func BenchmarkTableV_ARIMAX(b *testing.B) {
	ds := benchData(b)
	vi := bio.VarIndex()
	x := make([][]float64, ds.TrainEnd)
	for t := range x {
		row := make([]float64, len(bio.Variables()))
		for i, v := range bio.Variables() {
			row[i] = ds.Forcing[t][vi[v.Name]]
		}
		x[t] = row
	}
	y := ds.ObsPhy[:ds.TrainEnd]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arimax.Fit(y, x, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV_RNN(b *testing.B) {
	ds := benchData(b)
	vi := bio.VarIndex()
	n := 200 // short window: one epoch-scale unit
	x := make([][]float64, n)
	for t := range x {
		row := make([]float64, len(bio.Variables()))
		for i, v := range bio.Variables() {
			row[i] = ds.Forcing[t][vi[v.Name]]
		}
		x[t] = row
	}
	y := ds.ObsPhy[:n]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rnn.Train(x, y, rnn.Config{Epochs: 3, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV_GGGP(b *testing.B) {
	ds := benchData(b)
	consts := bio.DefaultConstants()
	sim := benchSim(ds)
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	fitness := func(phy, zoo *expr.Node, params []float64) float64 {
		p, z := expr.Simplify(phy), expr.Simplify(zoo)
		if err := grammar.BindSystem(p, z, consts); err != nil {
			return math.Inf(1)
		}
		sys, err := bio.NewSegSystem(p, z)
		if err != nil {
			return math.Inf(1)
		}
		return metrics.RMSE(sys.Predict(forcing, params, sim), obs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gggp.Run(gggp.Config{PopSize: 16, MaxGen: 3, Seed: int64(i)}, fitness); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV_GMR(b *testing.B) {
	ds := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(ds, core.Config{
			GP:   gp.Config{PopSize: 16, MaxGen: 3, LocalSearchSteps: 1, Seed: int64(i)},
			Eval: evalx.AllSpeedups(dataset.ModelSimConfig(2, 0, 0)),
			TopK: 5, PreCalibrateBudget: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 9 ----

func BenchmarkFig9_Selectivity(b *testing.B) {
	ds := benchData(b)
	res, err := core.Run(ds, core.Config{
		GP:   gp.Config{PopSize: 16, MaxGen: 3, LocalSearchSteps: 1, Seed: 1},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(2, 0, 0)),
		TopK: 5, PreCalibrateBudget: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	window := ds.TrainForcing()[:200]
	sim := benchSim(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeSelectivity(res.TopModels, bio.DefaultConstants(), window, sim); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 10: per-individual evaluation time under speedup combos ----

// fig10Pop builds the shared evaluation workload.
func fig10Pop(b *testing.B, n int) []*gp.Individual {
	b.Helper()
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	means := bio.Means(bio.DefaultConstants())
	pop := make([]*gp.Individual, 0, n)
	for len(pop) < n {
		d, err := g.RandomDeriv(rng, 2, 20)
		if err != nil {
			b.Fatal(err)
		}
		pop = append(pop, gp.NewIndividual(d, means))
		if len(pop) < n && rng.Float64() < 0.5 {
			pop = append(pop, pop[rng.Intn(len(pop))].Clone())
		}
	}
	return pop
}

func benchFig10(b *testing.B, tc, es, rc bool) {
	ds := benchData(b)
	pop := fig10Pop(b, 16)
	opts := evalx.Options{
		UseCache: tc, UseShortCircuit: es, UseCompile: rc, Simplify: tc,
		Sim: benchSim(ds),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), opts)
		for _, ind := range pop {
			c := ind.Clone()
			ev.BeginBatch()
			ev.Evaluate(c)
			ev.EndBatch()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pop)), "ns/individual")
}

func BenchmarkFig10_None(b *testing.B)     { benchFig10(b, false, false, false) }
func BenchmarkFig10_TC(b *testing.B)       { benchFig10(b, true, false, false) }
func BenchmarkFig10_ES(b *testing.B)       { benchFig10(b, false, true, false) }
func BenchmarkFig10_RC(b *testing.B)       { benchFig10(b, false, false, true) }
func BenchmarkFig10_TC_ES(b *testing.B)    { benchFig10(b, true, true, false) }
func BenchmarkFig10_TC_RC(b *testing.B)    { benchFig10(b, true, false, true) }
func BenchmarkFig10_ES_RC(b *testing.B)    { benchFig10(b, false, true, true) }
func BenchmarkFig10_TC_RC_ES(b *testing.B) { benchFig10(b, true, true, true) }

// ---- DESIGN.md §14: structure-clustered population evaluation ----

// benchEvaluatePop measures one generation-shaped evaluatePop pass over a
// duplicate-heavy population (8 structures × 8 clones, unique params per
// member), amortized per individual. The clustered and scalar variants run
// the identical engine code path; only Config.NoCluster differs.
// Short-circuiting is off so the row isolates the scheduler + simulation
// kernel (the Fig11 family covers ES behavior); parameters are jittered
// multiplicatively so every member misses tier 2 and simulates fully.
func benchEvaluatePop(b *testing.B, noCluster bool) {
	ds := benchData(b)
	pop := dupHeavyPop(b, 8, 8)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		b.Fatal(err)
	}
	opts := evalx.AllSpeedups(benchSim(ds))
	opts.UseShortCircuit = false
	ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), opts)
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: len(pop), Seed: 3, NoCluster: noCluster})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	eng.EvaluatePopulation(pop) // warm: derive, compile, exogenous plans
	base := make([]float64, len(pop))
	for j, ind := range pop {
		base[j] = ind.Params[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ind := range pop {
			ind.Params[0] = base[j] * (1 + float64(i*len(pop)+j)*1e-9)
			ind.Invalidate()
		}
		eng.EvaluatePopulation(pop)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pop)), "ns/individual")
}

func BenchmarkEvaluatePopClustered(b *testing.B) { benchEvaluatePop(b, false) }
func BenchmarkEvaluatePopScalar(b *testing.B)    { benchEvaluatePop(b, true) }

// ---- Figure 11: ES thresholds ----

func benchFig11(b *testing.B, es bool, threshold float64) {
	ds := benchData(b)
	pop := fig10Pop(b, 16)
	opts := evalx.AllSpeedups(benchSim(ds))
	opts.UseShortCircuit = es
	opts.Threshold = threshold
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), opts)
		for _, ind := range pop {
			c := ind.Clone()
			ev.BeginBatch()
			ev.Evaluate(c)
			ev.EndBatch()
		}
		steps += ev.Stats().StepsEvaluated
	}
	b.ReportMetric(float64(steps)/float64(b.N*len(pop)), "fitcases/individual")
}

func BenchmarkFig11_NoES(b *testing.B) { benchFig11(b, false, 0) }
func BenchmarkFig11_TH07(b *testing.B) { benchFig11(b, true, 0.7) }
func BenchmarkFig11_TH10(b *testing.B) { benchFig11(b, true, 1.0) }
func BenchmarkFig11_TH13(b *testing.B) { benchFig11(b, true, 1.3) }

// ---- Ablation benches for DESIGN.md's design choices ----

// BenchmarkAblation_TreeInterpret and BenchmarkAblation_Compiled quantify
// the runtime-compilation substitution: evaluating one derivative at one
// time step, interpreted vs compiled to the register VM.
func BenchmarkAblation_TreeInterpret(b *testing.B) {
	phy, _, consts, err := bio.ManualSystem()
	if err != nil {
		b.Fatal(err)
	}
	params := bio.Means(consts)
	vars := make([]float64, bio.NumVars)
	for i := range vars {
		vars[i] = 1 + float64(i)
	}
	env := &expr.Env{Vars: vars, Params: params}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Compiled(b *testing.B) {
	phy, _, consts, err := bio.ManualSystem()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := expr.CompileReg([]*expr.Node{phy}, func(i int) bool { return i == bio.IdxBPhy || i == bio.IdxBZoo })
	if err != nil {
		b.Fatal(err)
	}
	params := bio.Means(consts)
	vars := make([]float64, bio.NumVars)
	for i := range vars {
		vars[i] = 1 + float64(i)
	}
	regs := make([]float64, prog.NumRegs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.EvalOnce(vars, params, regs)
	}
}

// BenchmarkAblation_Derive measures derivation-tree → derived-tree
// construction, the per-individual overhead of the TAG representation.
func BenchmarkAblation_Derive(b *testing.B) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var trees []*tag.DerivNode
	for i := 0; i < 16; i++ {
		d, err := g.RandomDeriv(rng, 5, 30)
		if err != nil {
			b.Fatal(err)
		}
		trees = append(trees, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trees[i%len(trees)].Derive(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Simplify measures algebraic simplification, the lever
// behind tree-cache hit rates.
func BenchmarkAblation_Simplify(b *testing.B) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	d, err := g.RandomDeriv(rng, 10, 30)
	if err != nil {
		b.Fatal(err)
	}
	derived, err := d.Derive()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expr.Simplify(derived)
	}
}

// BenchmarkAblation_Hydrology measures one routing pass of the Nakdong
// network (equation 9 over a year).
func BenchmarkAblation_Hydrology(b *testing.B) {
	net := benchNakdong()
	days := 365
	in := benchInputs(net, days)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Route(in, days, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableV_QUAL2E measures one steady-state prediction pass of the
// classic river model over the training window.
func BenchmarkTableV_QUAL2E(b *testing.B) {
	ds := benchData(b)
	p := qual2e.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := qual2e.Predict(ds.TrainForcing(), p)
		if len(out) == 0 {
			b.Fatal("empty prediction")
		}
	}
}
