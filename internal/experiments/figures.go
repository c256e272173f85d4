package experiments

import (
	"context"
	"math/rand"
	"time"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
	"gmr/internal/grammar"
)

// Fig9 reproduces Figure 9: run GMR, pool the best models, and compute
// variable selectivity with perturbation correlations. Cancelling ctx
// stops the GMR runs at the next generation barrier and analyzes the
// models evolved so far.
func Fig9(ctx context.Context, ds *dataset.Dataset, sc Scale, seed int64) ([]core.Selectivity, *core.Result, error) {
	_, res, err := RunGMR(ctx, ds, sc, seed)
	if err != nil {
		return nil, nil, err
	}
	sim := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	// Perturbation analysis over a representative window (two years)
	// keeps the cost of up to 50 models × 10 perturbed variables
	// manageable.
	window := ds.TrainForcing()
	if len(window) > 730 {
		window = window[:730]
	}
	sel, err := core.AnalyzeSelectivity(res.TopModels, bio.DefaultConstants(), window, sim)
	return sel, res, err
}

// Fig10Row is one bar of Figure 10: mean evaluation time per individual
// under a combination of speedup techniques.
type Fig10Row struct {
	// Combo names the technique set (TC = tree caching, ES = evaluation
	// short-circuiting, RC = runtime compilation).
	Combo string
	// MeanPerIndividual is the mean wall-clock evaluation time.
	MeanPerIndividual time.Duration
	// Speedup is relative to the no-speedup baseline.
	Speedup float64
}

// Fig10Combos lists the paper's eight technique combinations in figure
// order.
func Fig10Combos() []struct {
	Name       string
	TC, ES, RC bool
} {
	return []struct {
		Name       string
		TC, ES, RC bool
	}{
		{"None", false, false, false},
		{"TC", true, false, false},
		{"ES", false, true, false},
		{"RC", false, false, true},
		{"TC+ES", true, true, false},
		{"TC+RC", true, false, true},
		{"ES+RC", false, true, true},
		{"TC+RC+ES", true, true, true},
	}
}

// fig10Population builds a deterministic evaluation workload resembling one
// GP generation: a mix of fresh random revisions and duplicates (elites,
// replicas, and crossover copies give tree caching its realistic hit rate).
func fig10Population(n int, seed int64) ([]*gp.Individual, error) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	means := bio.Means(bio.DefaultConstants())
	var pop []*gp.Individual
	for len(pop) < n {
		d, err := g.RandomDeriv(rng, 2, 25)
		if err != nil {
			return nil, err
		}
		ind := gp.NewIndividual(d, means)
		pop = append(pop, ind)
		// Half the population are duplicates of earlier individuals.
		if len(pop) < n && rng.Float64() < 0.5 {
			pop = append(pop, pop[rng.Intn(len(pop))].Clone())
		}
	}
	return pop, nil
}

// Fig10 measures mean per-individual evaluation time for each speedup
// combination over an identical workload of popSize individuals.
// Cancelling ctx stops the sweep at the next combination boundary and
// returns the rows measured so far with ctx's error.
func Fig10(ctx context.Context, ds *dataset.Dataset, sc Scale, popSize int, seed int64) ([]Fig10Row, error) {
	pop, err := fig10Population(popSize, seed)
	if err != nil {
		return nil, err
	}
	consts := bio.DefaultConstants()
	sim := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	var rows []Fig10Row
	var baseline time.Duration
	for _, combo := range Fig10Combos() {
		if ctx.Err() != nil {
			return rows, ctx.Err()
		}
		opts := evalx.Options{
			UseCache:        combo.TC,
			UseShortCircuit: combo.ES,
			UseCompile:      combo.RC,
			Sim:             sim,
		}
		ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), consts, opts)
		start := time.Now()
		for _, ind := range pop {
			c := ind.Clone()
			// Sequential batches let ES use prior full evaluations,
			// as in a real (generation-by-generation) run.
			ev.BeginBatch()
			ev.Evaluate(c)
			ev.EndBatch()
		}
		mean := time.Since(start) / time.Duration(len(pop))
		row := Fig10Row{Combo: combo.Name, MeanPerIndividual: mean}
		if combo.Name == "None" {
			baseline = mean
		}
		if baseline > 0 && mean > 0 {
			row.Speedup = float64(baseline) / float64(mean)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig11Row is one configuration of Figure 11: evaluation short-circuiting
// off, or on with a threshold.
type Fig11Row struct {
	Label     string
	Threshold float64 // 0 = ES disabled
	// StepsEvaluated counts simulated fitness cases during the run.
	StepsEvaluated int
	// TrainRMSE and TestRMSE of the run's best model.
	TrainRMSE, TestRMSE float64
	// FullyEvalAmongBest is the fraction of the run's top models whose
	// final fitness came from a full evaluation.
	FullyEvalAmongBest float64
}

// Fig11 sweeps the short-circuiting threshold (no-ES, 1.0, 0.7, 1.3 — the
// paper's settings) with otherwise identical GMR runs. Cancelling ctx
// stops the sweep at the next setting boundary and returns the rows
// completed so far with ctx's error.
func Fig11(ctx context.Context, ds *dataset.Dataset, sc Scale, seed int64) ([]Fig11Row, error) {
	type setting struct {
		label string
		es    bool
		th    float64
	}
	settings := []setting{
		{"No ES", false, 0},
		{"ES TH-0.7", true, 0.7},
		{"ES TH-1.0", true, 1.0},
		{"ES TH-1.3", true, 1.3},
	}
	var rows []Fig11Row
	for _, s := range settings {
		if ctx.Err() != nil {
			return rows, ctx.Err()
		}
		cfg := gmrConfig(sc, seed)
		cfg.Eval.UseShortCircuit = s.es
		cfg.Eval.Threshold = s.th
		res, err := core.RunContext(ctx, ds, cfg)
		if err != nil {
			return rows, err
		}
		if ctx.Err() != nil {
			// A truncated run is not comparable across thresholds:
			// drop the partial row.
			return rows, ctx.Err()
		}
		full := 0
		for _, m := range res.TopModels {
			if m.FullEval {
				full++
			}
		}
		rows = append(rows, Fig11Row{
			Label:              s.label,
			Threshold:          s.th,
			StepsEvaluated:     res.EvalStats.StepsEvaluated,
			TrainRMSE:          res.TrainRMSE,
			TestRMSE:           res.TestRMSE,
			FullyEvalAmongBest: float64(full) / float64(maxInt(1, len(res.TopModels))),
		})
	}
	return rows, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DefaultDataset generates the standard 13-year synthetic Nakdong dataset
// used by all experiments.
func DefaultDataset(seed int64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Config{Seed: seed})
}
