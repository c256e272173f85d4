package core

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
	"gmr/internal/metrics"
	"gmr/internal/obs"
)

// smallDS generates a 4-year dataset once per test binary.
var cachedDS *dataset.Dataset

func smallDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	if cachedDS == nil {
		ds, err := dataset.Generate(dataset.Config{Seed: 11, StartYear: 2000, EndYear: 2003, TrainEndYear: 2002})
		if err != nil {
			t.Fatal(err)
		}
		cachedDS = ds
	}
	return cachedDS
}

func smallCfg(seed int64) Config {
	return Config{
		GP: gp.Config{
			PopSize: 30, MaxGen: 8, LocalSearchSteps: 2,
			Seed: seed, Workers: 2,
		},
		Eval: evalx.AllSpeedups(bio.SimConfig{SubSteps: 2}),
		Runs: 1,
		TopK: 10,
	}
}

// TestRunRejectsNegativeRuns: a negative run count is a configuration
// error up front, not an empty search reported as "no valid model".
func TestRunRejectsNegativeRuns(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Runs = -1
	_, err := Run(smallDS(t), cfg)
	if err == nil || !strings.Contains(err.Error(), "negative run count") {
		t.Fatalf("Runs -1: err = %v, want a negative run count error", err)
	}
}

func TestRunProducesValidResult(t *testing.T) {
	ds := smallDS(t)
	res, err := Run(ds, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestPhy == nil || res.BestZoo == nil {
		t.Fatal("missing best model")
	}
	if math.IsInf(res.TrainRMSE, 1) || math.IsNaN(res.TrainRMSE) {
		t.Fatalf("train RMSE = %v", res.TrainRMSE)
	}
	if math.IsInf(res.TestRMSE, 1) || math.IsNaN(res.TestRMSE) {
		t.Fatalf("test RMSE = %v", res.TestRMSE)
	}
	if len(res.TestPred) != ds.Days-ds.TrainEnd {
		t.Errorf("test predictions length %d, want %d", len(res.TestPred), ds.Days-ds.TrainEnd)
	}
	if res.TrainMAE > res.TrainRMSE {
		t.Errorf("MAE %v > RMSE %v", res.TrainMAE, res.TrainRMSE)
	}
	if len(res.TopModels) == 0 || len(res.TopModels) > 10 {
		t.Errorf("TopModels has %d entries", len(res.TopModels))
	}
	if len(res.TopTestRMSE) != len(res.TopModels) {
		t.Fatalf("TopTestRMSE has %d entries for %d models", len(res.TopTestRMSE), len(res.TopModels))
	}
	// TopModels ranked by test RMSE (the paper's reporting protocol).
	for i := 1; i < len(res.TopTestRMSE); i++ {
		if res.TopTestRMSE[i] < res.TopTestRMSE[i-1] {
			t.Error("TopModels not ranked by test RMSE")
		}
	}
	if res.TestRMSE != res.TopTestRMSE[0] {
		t.Errorf("reported TestRMSE %v != best ranked %v", res.TestRMSE, res.TopTestRMSE[0])
	}
}

// TestRevisionBeatsManual is the core claim of the paper at small scale:
// even a modest GMR run must outperform the unrevised manual model on both
// train and test windows.
func TestRevisionBeatsManual(t *testing.T) {
	ds := smallDS(t)
	res, err := Run(ds, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	man, _, err := ManualIndividual(Config{})
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	m, err := evalx.Compile(man, consts)
	if err != nil {
		t.Fatal(err)
	}
	manPred := m.Predict(ds.TrainForcing(), man.Params, sim)
	manRMSE := metrics.RMSE(manPred, ds.TrainObsPhy())
	if res.TrainRMSE >= manRMSE {
		t.Errorf("GMR train RMSE %v did not beat MANUAL %v", res.TrainRMSE, manRMSE)
	}
	// The manual model at Table III means diverges on this data; GMR
	// must be orders of magnitude better.
	if res.TrainRMSE > manRMSE/10 {
		t.Errorf("GMR train RMSE %v is not ≪ MANUAL %v", res.TrainRMSE, manRMSE)
	}
}

func TestRunDeterminism(t *testing.T) {
	ds := smallDS(t)
	a, err := Run(ds, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.TrainRMSE != b.TrainRMSE || a.TestRMSE != b.TestRMSE {
		t.Errorf("same seed, different results: %v/%v vs %v/%v",
			a.TrainRMSE, a.TestRMSE, b.TrainRMSE, b.TestRMSE)
	}
	if a.BestPhy.String() != b.BestPhy.String() {
		t.Error("same seed produced different best models")
	}
}

func TestMultipleRunsPoolModels(t *testing.T) {
	ds := smallDS(t)
	cfg := smallCfg(4)
	cfg.Runs = 2
	cfg.GP.PopSize = 16
	cfg.GP.MaxGen = 4
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRun) != 2 {
		t.Errorf("PerRun has %d entries, want 2", len(res.PerRun))
	}
	// The pooled candidate set must include material from both runs:
	// the best train fitness among candidates is no worse than the best
	// run's best.
	bestRun := math.Inf(1)
	for _, r := range res.PerRun {
		if r.Best.Fitness < bestRun {
			bestRun = r.Best.Fitness
		}
	}
	bestPool := math.Inf(1)
	for _, m := range res.TopModels {
		if m.Fitness < bestPool {
			bestPool = m.Fitness
		}
	}
	// The train-fittest model may fall outside the TopK-by-test-RMSE
	// cut, so allow equality failure only when the pool is truncated.
	if len(res.TopModels) < 10 && bestPool > bestRun {
		t.Errorf("pooled best train fitness %v worse than run best %v", bestPool, bestRun)
	}
}

// TestRunContextStopsAfterCancelledGeneration cancels the context while
// the third generation of the first of two runs is in progress: the run
// completes that generation and stops, the second run never starts, and
// the partial result is post-processed.
func TestRunContextStopsAfterCancelledGeneration(t *testing.T) {
	ds := smallDS(t)
	const stopAt = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var variations atomic.Int64
	cfg := smallCfg(4)
	cfg.Runs = 2
	cfg.GP.PopSize = 16
	cfg.GP.MaxGen = 20
	cfg.PreCalibrateBudget = 40
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond, SlowLog: func(r obs.SpanRecord) {
		if r.Name == "gp.variation" && variations.Add(1) == stopAt {
			cancel()
		}
	}})
	res, err := RunContext(ctx, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRun) != 1 {
		t.Fatalf("%d runs started, want 1", len(res.PerRun))
	}
	r := res.PerRun[0]
	if got := len(r.History); got != stopAt+1 {
		t.Errorf("history has %d entries, want %d (init + %d generations)", got, stopAt+1, stopAt)
	}
	if r.Best == nil || len(r.Final) != cfg.GP.PopSize || res.Best == nil {
		t.Error("partial result incomplete")
	}
}

func TestAnalyzeSelectivity(t *testing.T) {
	ds := smallDS(t)
	res, err := Run(ds, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	sel, err := AnalyzeSelectivity(res.TopModels, consts, ds.TrainForcing()[:200], sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(bio.Variables()) {
		t.Fatalf("selectivity over %d variables, want %d", len(sel), len(bio.Variables()))
	}
	byVar := map[string]Selectivity{}
	for _, s := range sel {
		if s.Percent < 0 || s.Percent > 100 {
			t.Errorf("%s selectivity %v%% out of range", s.Variable, s.Percent)
		}
		byVar[s.Variable] = s
	}
	// Vlgt and Vtmp are part of the initial process: every model
	// contains them unless simplification removed the whole term.
	if byVar["Vlgt"].Percent < 90 {
		t.Errorf("Vlgt selectivity %v%%, expected ~100%%", byVar["Vlgt"].Percent)
	}
	if byVar["Vtmp"].Percent < 90 {
		t.Errorf("Vtmp selectivity %v%%, expected ~100%%", byVar["Vtmp"].Percent)
	}
	// Sorted descending by percent.
	for i := 1; i < len(sel); i++ {
		if sel[i].Percent > sel[i-1].Percent {
			t.Error("selectivity not sorted")
		}
	}
}

func TestAnalyzeSelectivityEmpty(t *testing.T) {
	if _, err := AnalyzeSelectivity(nil, nil, nil, bio.SimConfig{}); err == nil {
		t.Error("empty model list accepted")
	}
}

func TestCorrelationString(t *testing.T) {
	if Correlated.String() != "correlated" ||
		InverselyCorrelated.String() != "inversely-correlated" ||
		Uncorrelated.String() != "uncorrelated" {
		t.Error("Correlation.String mismatch")
	}
}

func TestManualIndividual(t *testing.T) {
	ind, g, err := ManualIndividual(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.Size() != 1 {
		t.Errorf("manual individual size %d, want 1 (just the α)", ind.Size())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ind.Params) != 16 {
		t.Errorf("manual params %d, want 16", len(ind.Params))
	}
}

func TestAnalyzeParamSensitivity(t *testing.T) {
	ds := smallDS(t)
	man, _, err := ManualIndividual(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0], ClampMin: 1, ClampMax: 220}
	sens, err := AnalyzeParamSensitivity(man, bio.DefaultConstants(), ds.TrainForcing()[:365], sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 16 {
		t.Fatalf("sensitivity over %d constants, want 16", len(sens))
	}
	byName := map[string]float64{}
	for i, s := range sens {
		if s.Relative < 0 || math.IsNaN(s.Relative) {
			t.Errorf("%s: invalid sensitivity %v", s.Name, s.Relative)
		}
		if i > 0 && s.Relative > sens[i-1].Relative {
			t.Error("sensitivities not sorted descending")
		}
		byName[s.Name] = s.Relative
	}
	// The growth rate must matter more than the food half-saturation
	// constant in this exponential-growth-dominated regime.
	if byName["CUA"] <= byName["CFS"] {
		t.Errorf("CUA sensitivity %v not above CFS %v", byName["CUA"], byName["CFS"])
	}
	if _, err := AnalyzeParamSensitivity(nil, nil, nil, bio.SimConfig{}); err == nil {
		t.Error("nil individual accepted")
	}
}
