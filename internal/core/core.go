// Package core is the GMR (genetic model revision) framework of the paper:
// it wires the prior knowledge (the extensible process grammar, the
// parameter priors, and the plausible-revision spec of Table II) into the
// TAG3P engine with speedup-enabled fitness evaluation, runs the
// evolutionary revision loop of Figure 5, and post-processes the revised
// models (forecast metrics, variable-selectivity and perturbation-
// correlation analyses of Figure 9).
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/expr"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/metrics"
	"gmr/internal/obs"
	"gmr/internal/orchestrator"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

// Config configures a GMR run. Zero values default to scaled-down versions
// of the paper's Appendix B settings so the case study runs on laptop-scale
// hardware; the paper-scale configuration is expressible through the same
// fields.
type Config struct {
	// GP holds the TAG3P parameters. Priors are set by Run from the
	// Table III constants.
	GP gp.Config
	// Eval selects the speedup techniques and simulation regime; Sim's
	// initial biomasses are set by Run from the training observations.
	Eval evalx.Options
	// Runs is the number of independent evolutionary runs (paper: 60);
	// zero means 1 and a negative count is an error. The best model across
	// runs is reported.
	Runs int
	// TopK is how many of the best final individuals to keep for the
	// Figure 9 analyses; zero means 50 (the paper's "50 best models").
	TopK int
	// Extensions is the plausible-revision spec; nil means Table II.
	Extensions []grammar.Extension
	// PreCalibrateBudget is the objective-evaluation budget of the
	// calibration pass that produces the revision's starting parameter
	// values (model revision receives "the initial model structure and
	// parameter values" — in the river-modeling lineage those come from
	// earlier calibration work). Zero means 3000; negative disables
	// pre-calibration, starting from the Table III means instead.
	PreCalibrateBudget int
	// Obs, when non-nil, is the unified observability registry: runs
	// register per-run (or per-island) engine progress gauges and
	// evaluator counter families on it, scrapeable at /metrics while the
	// search executes. Nil disables registration.
	Obs *obs.Registry
	// Tracer, when non-nil, records phase spans across the stack (gp
	// generation phases, evalx evaluator phases, orchestrator barriers).
	// It is propagated to every engine and — unless Eval.Tracer is
	// already set — to every evaluator.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.TopK == 0 {
		c.TopK = 50
	}
	if c.Extensions == nil {
		c.Extensions = grammar.DefaultExtensions()
	}
	return c
}

// Result is the outcome of a GMR run.
type Result struct {
	// Best is the best individual across all runs.
	Best *gp.Individual
	// BestPhy and BestZoo are its simplified derivative expressions.
	BestPhy, BestZoo *expr.Node
	// Train/Test metrics of the best model.
	TrainRMSE, TrainMAE float64
	TestRMSE, TestMAE   float64
	// TestPred is the best model's free-run prediction over the test
	// window.
	TestPred []float64
	// TopModels are the best final individuals pooled across runs, up
	// to Config.TopK, ranked by test RMSE per the paper's reporting
	// protocol (Section IV-D: "best models denote those with the
	// smallest test RMSE").
	TopModels []*gp.Individual
	// TopTestRMSE aligns with TopModels.
	TopTestRMSE []float64
	// PerRun holds each run's engine result.
	PerRun []*gp.Result
	// EvalStats aggregates evaluator work across runs.
	EvalStats evalx.Stats
}

// runSetup holds the shared artifacts every run mode (sequential runs,
// context-aware runs, island orchestration) derives from a Config: the
// knowledge grammar, the prior-wired GP configuration, the simulation
// options, and the pre-calibration machinery.
type runSetup struct {
	g        *tag.Grammar
	gpCfg    gp.Config
	evalOpts evalx.Options
	// precal returns a fresh pre-calibration objective over the compiled
	// unrevised process: one objective is not safe for concurrent calls,
	// and islands pre-calibrate concurrently.
	precal func() calib.Objective
	lo, hi []float64
	budget int
	tracer *obs.Tracer
}

func prepare(ds *dataset.Dataset, cfg Config) (*runSetup, error) {
	g, err := grammar.River(cfg.Extensions)
	if err != nil {
		return nil, err
	}
	consts := bio.DefaultConstants()
	priors := make([]gp.Prior, len(consts))
	for i, c := range consts {
		priors[i] = gp.Prior{Mean: c.Mean, Min: c.Min, Max: c.Max}
	}
	gpCfg := cfg.GP
	gpCfg.Priors = priors

	evalOpts := cfg.Eval
	evalOpts.Sim.Phy0 = ds.ObsPhy[0]
	evalOpts.Sim.Zoo0 = ds.ObsZoo[0]
	if evalOpts.Tracer == nil {
		evalOpts.Tracer = cfg.Tracer
	}

	s := &runSetup{g: g, gpCfg: gpCfg, evalOpts: evalOpts, tracer: cfg.Tracer}
	// Pre-calibration of the unrevised process: each run starts from its
	// own calibrated parameter vector (different calibration seeds find
	// different basins of the multimodal box, and the runs then explore
	// revisions from diverse calibrated starting points).
	if cfg.PreCalibrateBudget >= 0 {
		phy, zoo, _, err := bio.ManualSystem()
		if err != nil {
			return nil, err
		}
		sys, err := bio.NewSegSystem(phy, zoo)
		if err != nil {
			return nil, err
		}
		forcing, obs, sim := ds.TrainForcing(), ds.TrainObsPhy(), evalOpts.Sim
		s.precal = func() calib.Objective { return calib.StructureObjective(sys, forcing, obs, sim) }
	}
	s.lo, s.hi = calib.Box(consts)
	s.budget = cfg.PreCalibrateBudget
	if s.budget == 0 {
		s.budget = 3000
	}
	return s, nil
}

// newEvaluator builds a fresh per-run (or per-island) evaluator. Each run
// must get its own: the short-circuiting reference and the tree cache are
// per-run state, and sharing them would let earlier runs truncate later
// runs' evaluations against a foreign best (turning their reported
// fitnesses into boundary-hugging surrogates).
func (s *runSetup) newEvaluator(ds *dataset.Dataset) *evalx.Evaluator {
	return evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), s.evalOpts)
}

// calibrate pre-calibrates run (or island) idx's starting parameters and
// seeds the unrevised baseline individual into its initial population.
// Alternates calibrators across indices for basin diversity. Safe for
// concurrent calls with different indices.
func (s *runSetup) calibrate(idx int, runCfg gp.Config) gp.Config {
	if s.precal == nil {
		return runCfg
	}
	defer s.tracer.Start("core.precal").End()
	rng := stats.NewRand(runCfg.Seed ^ 0x5ca1ab1e)
	var c calib.Calibrator = calib.NewGA()
	if idx%2 == 1 {
		c = calib.NewSA()
	}
	params, _ := c.Calibrate(s.precal(), s.lo, s.hi, s.budget, rng)
	runCfg.InitParams = params
	// The unrevised input process with its calibrated parameters joins
	// the initial population: revision starts no worse than the
	// knowledge-based baseline.
	baseline := gp.NewIndividual(&tag.DerivNode{Elem: s.g.Alphas[0]}, params)
	runCfg.SeedIndividuals = []*gp.Individual{baseline}
	return runCfg
}

// Run executes GMR on the dataset: builds the knowledge grammar, evolves
// Config.Runs populations, and evaluates the best revised model on the
// held-out test window.
func Run(ds *dataset.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), ds, cfg)
}

// RunContext is Run with graceful cancellation: when ctx is cancelled the
// in-flight evolutionary run stops after the generation in progress, no
// further runs start, and the models evolved so far are post-processed
// into a partial Result. Cancellation before any model exists returns
// ctx's error.
func RunContext(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if cfg.Runs < 0 {
		return nil, fmt.Errorf("core: negative run count %d", cfg.Runs)
	}
	cfg = cfg.withDefaults()
	setup := cfg.Tracer.Start("core.setup")
	s, err := prepare(ds, cfg)
	setup.End()
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var pool []*gp.Individual
	for run := 0; run < cfg.Runs && ctx.Err() == nil; run++ {
		ev := s.newEvaluator(ds)
		runCfg := s.gpCfg
		runCfg.Seed = s.gpCfg.Seed + int64(run)*1009
		runCfg.Tracer = cfg.Tracer
		runCfg = s.calibrate(run, runCfg)
		eng, err := gp.NewEngine(s.g, ev, runCfg)
		if err != nil {
			return nil, err
		}
		registerRunObs(cfg.Obs, run, eng, ev)
		r, err := eng.Run(ctx)
		if err != nil {
			return nil, err
		}
		res.PerRun = append(res.PerRun, r)
		pool = append(pool, r.Best)
		pool = append(pool, r.Final...)
		st := ev.Stats()
		res.EvalStats.Add(st)
	}
	if len(pool) == 0 && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return finalize(ds, cfg, s.evalOpts, pool, res)
}

// IslandOptions configures RunIslands' orchestration layer.
type IslandOptions struct {
	// Islands is the number of islands (0 means the orchestrator default).
	Islands int
	// MigrationEvery is the generation cadence of ring migration
	// (0 means default; negative disables).
	MigrationEvery int
	// Migrants is the elite count each island sends per migration.
	Migrants int
	// CheckpointPath enables crash-safe checkpointing when non-empty.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in generations.
	CheckpointEvery int
	// Resume restores CheckpointPath before running (the configuration
	// must match the one that wrote the checkpoint).
	Resume bool
	// Telemetry receives the JSONL run telemetry when non-nil.
	Telemetry io.Writer
	// Faults, when non-nil, is the run's fault injector: the
	// orchestrator uses it for checkpoint-write truncation and reports
	// its tally in the run_end telemetry record. Pass the same injector
	// as Config.Eval.Faults to also inject evaluation-level faults
	// (panic, NaN poison, latency) with one shared counter set.
	Faults *faultinject.Injector
}

// RunIslands executes GMR as an island model: Config.GP populations evolve
// in parallel with periodic elite migration, instead of Config.Runs
// isolated sequential restarts. The pooled island models flow through the
// same reporting protocol as Run. Returns both the GMR result and the
// orchestrator's run record (generations completed, migrations,
// interruption status).
func RunIslands(ctx context.Context, ds *dataset.Dataset, cfg Config, opts IslandOptions) (*Result, *orchestrator.Result, error) {
	cfg = cfg.withDefaults()
	// core.setup covers the grammar, the evaluators and the engines; the
	// islands' pre-calibrations inside orchestrator.New, which run
	// concurrently, are core.precal.
	setup := cfg.Tracer.Start("core.setup")
	s, err := prepare(ds, cfg)
	if err != nil {
		setup.End()
		return nil, nil, err
	}

	var evals []*evalx.Evaluator
	ocfg := orchestrator.Config{
		Islands:        opts.Islands,
		MigrationEvery: opts.MigrationEvery,
		Migrants:       opts.Migrants,
		GP:             s.gpCfg,
		Grammar:        s.g,
		NewEvaluator: func(int) gp.Evaluator {
			ev := s.newEvaluator(ds) // called sequentially by New
			evals = append(evals, ev)
			return ev
		},
		CheckpointPath:  opts.CheckpointPath,
		CheckpointEvery: opts.CheckpointEvery,
		Telemetry:       opts.Telemetry,
		Faults:          opts.Faults,
		Obs:             cfg.Obs,
		Tracer:          cfg.Tracer,
	}
	if !opts.Resume {
		// Pre-calibrate each island's starting parameters. Skipped on
		// resume: restored engines keep their checkpointed populations,
		// so the (expensive) calibration output would be discarded.
		ocfg.ConfigureIsland = func(i int, icfg gp.Config) gp.Config {
			return s.calibrate(i, icfg)
		}
	}
	o, err := orchestrator.New(ocfg)
	setup.End()
	if err != nil {
		return nil, nil, err
	}
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, nil, fmt.Errorf("core: Resume requires a CheckpointPath")
		}
		if err := o.Resume(opts.CheckpointPath); err != nil {
			return nil, nil, err
		}
	}
	orch, err := o.Run(ctx)
	if err != nil {
		return nil, nil, err
	}

	res := &Result{PerRun: orch.PerIsland}
	for _, ev := range evals {
		res.EvalStats.Add(ev.Stats())
	}
	fin, err := finalize(ds, cfg, s.evalOpts, orch.PoolModels(), res)
	if err != nil {
		return nil, orch, err
	}
	return fin, orch, nil
}

// finalize post-processes the pooled candidate models per the paper's
// reporting protocol and fills in the Result's best-model fields.
func finalize(ds *dataset.Dataset, cfg Config, evalOpts evalx.Options, pool []*gp.Individual, res *Result) (*Result, error) {
	defer cfg.Tracer.Start("core.finalize").End()
	// Deduplicate the pool by model identity, keep the (2×TopK)
	// train-fittest candidates, then rank them by test RMSE — the
	// paper's reporting protocol (Section IV-D: "best models denote
	// those with the smallest test RMSE").
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Fitness < pool[j].Fitness })
	seen := map[string]bool{}
	var candidates []*gp.Individual
	for pass := 0; pass < 2 && len(candidates) < 2*cfg.TopK; pass++ {
		for _, ind := range pool {
			// First pass: only fully evaluated individuals — their
			// fitnesses are exact, while short-circuited ones are
			// boundary-hugging surrogates. Second pass fills up with
			// the rest if needed.
			if (pass == 0) != ind.FullEval {
				continue
			}
			phy, zoo, err := evalx.ModelExprs(ind)
			if err != nil {
				continue
			}
			key := phy.String() + "|" + zoo.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, ind)
			if len(candidates) >= 2*cfg.TopK {
				break
			}
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no valid model produced")
	}
	simTest := evalOpts.Sim
	simTest.Phy0 = ds.ObsPhy[ds.TrainEnd]
	simTest.Zoo0 = ds.ObsZoo[ds.TrainEnd]
	// Each candidate is compiled once and predicted once per window, on a
	// GOMAXPROCS pool into its own slot, so the order below is the
	// candidates'; the winner's metrics and forecast come from the same
	// predictions.
	type ranked struct {
		ind              *gp.Individual
		model            *evalx.Model
		rmse, train      float64
		trPred, testPred []float64
	}
	slots := make([]ranked, len(candidates))
	consts := bio.DefaultConstants()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(candidates)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(candidates) {
					return
				}
				ind := candidates[i]
				m, err := evalx.Compile(ind, consts)
				if err != nil {
					continue
				}
				trPred := m.Predict(ds.TrainForcing(), ind.Params, evalOpts.Sim)
				pred := m.Predict(ds.TestForcing(), ind.Params, simTest)
				slots[i] = ranked{ind, m, metrics.RMSE(pred, ds.TestObsPhy()), metrics.RMSE(trPred, ds.TrainObsPhy()), trPred, pred}
			}
		}()
	}
	wg.Wait()
	rankedModels := slots[:0]
	bestTrain := math.Inf(1)
	for _, r := range slots {
		if r.model == nil {
			continue
		}
		rankedModels = append(rankedModels, r)
		if r.train < bestTrain {
			bestTrain = r.train
		}
	}
	if len(rankedModels) == 0 {
		return nil, fmt.Errorf("core: no model survived test evaluation")
	}
	// Guard the paper's select-by-test protocol: a model that fits the
	// training window far worse than the best candidate is not a
	// plausible revision, however lucky its test trajectory.
	kept := rankedModels[:0]
	for _, r := range rankedModels {
		if r.train <= 2*bestTrain {
			kept = append(kept, r)
		}
	}
	rankedModels = kept
	sort.SliceStable(rankedModels, func(i, j int) bool { return rankedModels[i].rmse < rankedModels[j].rmse })
	if len(rankedModels) > cfg.TopK {
		rankedModels = rankedModels[:cfg.TopK]
	}
	for _, r := range rankedModels {
		res.TopModels = append(res.TopModels, r.ind)
		res.TopTestRMSE = append(res.TopTestRMSE, r.rmse)
	}
	best := rankedModels[0]
	res.Best, res.BestPhy, res.BestZoo = best.ind, best.model.Phy, best.model.Zoo
	res.TrainRMSE, res.TrainMAE = best.train, metrics.MAE(best.trPred, ds.TrainObsPhy())
	res.TestPred = best.testPred
	res.TestRMSE, res.TestMAE = best.rmse, metrics.MAE(best.testPred, ds.TestObsPhy())
	return res, nil
}

// Correlation classifies how a variable relates to phytoplankton growth in
// the Figure 9 perturbation analysis.
type Correlation int

const (
	// Uncorrelated: perturbing the variable barely moves the forecast.
	Uncorrelated Correlation = iota
	// Correlated: increasing the variable increases biomass.
	Correlated
	// InverselyCorrelated: increasing the variable decreases biomass.
	InverselyCorrelated
)

func (c Correlation) String() string {
	switch c {
	case Correlated:
		return "correlated"
	case InverselyCorrelated:
		return "inversely-correlated"
	default:
		return "uncorrelated"
	}
}

// Selectivity is one bar of Figure 9: how often a variable appears among
// the top models and how it correlates with biomass under perturbation.
type Selectivity struct {
	Variable    string
	Percent     float64
	Correlation Correlation
}

// AnalyzeSelectivity computes the Figure 9 analysis over the given models:
// for each temporal variable, the percentage of models whose simplified
// process contains it, and the sign of the biomass response when the
// variable is perturbed +10% across the evaluation window (majority vote
// across models that use the variable).
func AnalyzeSelectivity(models []*gp.Individual, consts []bio.Constant, forcing [][]float64, sim bio.SimConfig) ([]Selectivity, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("core: no models to analyze")
	}
	// Each model is compiled once and its baseline predicted at most once.
	// An underivable model is never counted; one that fails to bind or
	// compile (nil SegSystem) is counted where it uses a variable but
	// never votes.
	type compiled struct {
		*evalx.Model
		params []float64
		base   []float64 // baseline forecast, predicted on first use
		scale  float64
	}
	var cms []*compiled
	for _, ind := range models {
		if m, _ := evalx.Compile(ind, consts); m != nil {
			cms = append(cms, &compiled{Model: m, params: ind.Params})
		}
	}
	vi := bio.VarIndex()
	var out []Selectivity
	for _, v := range bio.Variables() {
		count := 0
		votePos, voteNeg := 0, 0
		var pert [][]float64 // built once per variable, on first use
		for _, cm := range cms {
			if !containsVar(cm.Phy, v.Name) && !containsVar(cm.Zoo, v.Name) {
				continue
			}
			count++
			if cm.SegSystem == nil {
				continue
			}
			if cm.base == nil {
				cm.base = cm.Predict(forcing, cm.params, sim)
				cm.scale = stats.Mean(cm.base)
			}
			if cm.scale <= 0 {
				continue
			}
			if pert == nil {
				pert = perturbForcing(forcing, vi[v.Name], 1.10)
			}
			switch delta := meanDelta(cm.Predict(pert, cm.params, sim), cm.base); {
			case delta > 0.005*cm.scale:
				votePos++
			case delta < -0.005*cm.scale:
				voteNeg++
			}
		}
		sel := Selectivity{
			Variable: v.Name,
			Percent:  100 * float64(count) / float64(len(models)),
		}
		switch {
		case votePos > voteNeg && votePos > 0:
			sel.Correlation = Correlated
		case voteNeg > votePos && voteNeg > 0:
			sel.Correlation = InverselyCorrelated
		default:
			sel.Correlation = Uncorrelated
		}
		out = append(out, sel)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Percent > out[j].Percent })
	return out, nil
}

func containsVar(n *expr.Node, name string) bool {
	found := false
	n.Walk(func(m *expr.Node) bool {
		if m.Kind == expr.Var && m.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

func perturbForcing(forcing [][]float64, col int, factor float64) [][]float64 {
	out := make([][]float64, len(forcing))
	for i, row := range forcing {
		cp := append([]float64(nil), row...)
		cp[col] *= factor
		out[i] = cp
	}
	return out
}

func meanDelta(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range a {
		s += a[i] - b[i]
	}
	return s / float64(len(a))
}

// ManualIndividual builds the unrevised MANUAL model as an individual (the
// α-tree with Table III means), for baselines and tests.
func ManualIndividual(cfg Config) (*gp.Individual, *tag.Grammar, error) {
	cfg = cfg.withDefaults()
	g, err := grammar.River(cfg.Extensions)
	if err != nil {
		return nil, nil, err
	}
	root := &tag.DerivNode{Elem: g.Alphas[0]}
	return gp.NewIndividual(root, bio.Means(bio.DefaultConstants())), g, nil
}

// registerRunObs publishes run-scoped observability series for a
// sequential run: the engine's barrier-consistent progress mirror and the
// evaluator's counter family, labeled run="<idx>" so consecutive runs sit
// side by side in one exposition. No-op without a registry.
func registerRunObs(r *obs.Registry, run int, eng *gp.Engine, ev *evalx.Evaluator) {
	if r == nil {
		return
	}
	ls := obs.Labels{"run": fmt.Sprint(run)}
	eng.RegisterObs(r, ls)
	ev.RegisterObs(r, "gmr_evalx", ls)
}
