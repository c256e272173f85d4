package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"gmr/internal/arimax"
	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/gggp"
	"gmr/internal/grammar"
	"gmr/internal/metrics"
	"gmr/internal/qual2e"
	"gmr/internal/rnn"
	"gmr/internal/stats"
)

// TableVRow is one row of Table V: a method's forecasting accuracy on the
// training (1996–2005) and test (2006–2008) windows.
type TableVRow struct {
	Class               string
	Method              string
	TrainRMSE, TrainMAE float64
	TestRMSE, TestMAE   float64
	// Seconds is wall-clock fitting time (not in the paper's table;
	// reported for context).
	Seconds float64
}

// TableV runs all sixteen methods of the paper's Table V / Figure 1 and
// returns their rows in the paper's order. methods filters by name when
// non-empty. Cancelling ctx stops the suite at the next method boundary
// (and stops GMR at its next generation barrier), returning the rows
// completed so far alongside ctx's error.
func TableV(ctx context.Context, ds *dataset.Dataset, sc Scale, seed int64, methods map[string]bool) ([]TableVRow, error) {
	want := func(name string) bool {
		return ctx.Err() == nil && (len(methods) == 0 || methods[name])
	}
	var rows []TableVRow
	add := func(row TableVRow, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", row.Method, err)
		}
		rows = append(rows, row)
		return nil
	}

	if want("MANUAL") {
		if err := add(runManual(ds, sc)); err != nil {
			return rows, err
		}
	}
	if want("QUAL2E") {
		// Not in the paper's Table V; included because Related Work
		// singles QUAL2E out as the classic river model limited by its
		// steady-state assumption.
		if err := add(runQUAL2E(ds, sc, seed)); err != nil {
			return rows, err
		}
	}
	if want("RNN-S1") {
		if err := add(runRNN(ds, sc, seed, false)); err != nil {
			return rows, err
		}
	}
	if want("RNN-All") {
		if err := add(runRNN(ds, sc, seed, true)); err != nil {
			return rows, err
		}
	}
	if want("ARIMAX-S1") {
		if err := add(runARIMAX(ds, false)); err != nil {
			return rows, err
		}
	}
	if want("ARIMAX-All") {
		if err := add(runARIMAX(ds, true)); err != nil {
			return rows, err
		}
	}
	for _, c := range calib.All() {
		if !want(c.Name()) {
			continue
		}
		if err := add(runCalibrator(ds, sc, seed, c)); err != nil {
			return rows, err
		}
	}
	if want("GGGP") {
		if err := add(runGGGP(ds, sc, seed)); err != nil {
			return rows, err
		}
	}
	if want("GMR") {
		row, _, err := RunGMR(ctx, ds, sc, seed)
		if err := add(row, err); err != nil {
			return rows, err
		}
	}
	return rows, ctx.Err()
}

// score evaluates free-run predictions of a process-model parameterization
// on both windows.
func scoreProcess(ds *dataset.Dataset, sc Scale, phy, zoo *expr.Node, params []float64) (TableVRow, error) {
	consts := bio.DefaultConstants()
	p, z := expr.Simplify(phy), expr.Simplify(zoo)
	if err := grammar.BindSystem(p, z, consts); err != nil {
		return TableVRow{}, err
	}
	sys, err := bio.NewSegSystem(p, z)
	if err != nil {
		return TableVRow{}, err
	}
	simTr := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	simTe := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[ds.TrainEnd], ds.ObsZoo[ds.TrainEnd])
	trPred := sys.Predict(ds.TrainForcing(), params, simTr)
	tePred := sys.Predict(ds.TestForcing(), params, simTe)
	return TableVRow{
		TrainRMSE: metrics.RMSE(trPred, ds.TrainObsPhy()),
		TrainMAE:  metrics.MAE(trPred, ds.TrainObsPhy()),
		TestRMSE:  metrics.RMSE(tePred, ds.TestObsPhy()),
		TestMAE:   metrics.MAE(tePred, ds.TestObsPhy()),
	}, nil
}

func runManual(ds *dataset.Dataset, sc Scale) (TableVRow, error) {
	start := time.Now()
	row, err := scoreProcess(ds, sc, bio.PhyDeriv(), bio.ZooDeriv(), bio.Means(bio.DefaultConstants()))
	row.Class, row.Method = "Knowledge-driven", "MANUAL"
	row.Seconds = time.Since(start).Seconds()
	return row, err
}

func runQUAL2E(ds *dataset.Dataset, sc Scale, seed int64) (TableVRow, error) {
	start := time.Now()
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	obj := func(v []float64) float64 {
		p, err := qual2e.FromVector(v)
		if err != nil {
			return math.Inf(1)
		}
		return metrics.RMSE(qual2e.Predict(forcing, p), obs)
	}
	lo, hi := qual2e.Bounds()
	budget := sc.CalibBudget / 4
	if budget < 500 {
		budget = 500
	}
	v, _ := calib.NewSA().Calibrate(obj, lo, hi, budget, stats.NewRand(seed*53))
	p, err := qual2e.FromVector(v)
	if err != nil {
		return TableVRow{Method: "QUAL2E"}, err
	}
	trPred := qual2e.Predict(forcing, p)
	tePred := qual2e.Predict(ds.TestForcing(), p)
	return TableVRow{
		Class: "Knowledge-driven", Method: "QUAL2E",
		TrainRMSE: metrics.RMSE(trPred, obs),
		TrainMAE:  metrics.MAE(trPred, obs),
		TestRMSE:  metrics.RMSE(tePred, ds.TestObsPhy()),
		TestMAE:   metrics.MAE(tePred, ds.TestObsPhy()),
		Seconds:   time.Since(start).Seconds(),
	}, nil
}

func runCalibrator(ds *dataset.Dataset, sc Scale, seed int64, c calib.Calibrator) (TableVRow, error) {
	start := time.Now()
	consts := bio.DefaultConstants()
	sim := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	lo, hi := calib.Box(consts)
	rng := stats.NewRand(seed*31 + int64(len(c.Name())))
	var params []float64
	if bc, ok := c.(calib.BatchCalibrator); ok {
		// Population methods score whole cohorts through the lane-batched
		// kernel; the trajectory is identical to the scalar path (see
		// calib's batch parity tests), just cheaper per candidate.
		obj, err := calib.RiverBatchObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
		if err != nil {
			return TableVRow{Method: c.Name()}, err
		}
		params, _ = bc.CalibrateBatch(obj, lo, hi, sc.CalibBudget, rng)
	} else {
		obj, err := calib.RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
		if err != nil {
			return TableVRow{Method: c.Name()}, err
		}
		params, _ = c.Calibrate(obj, lo, hi, sc.CalibBudget, rng)
	}
	row, err := scoreProcess(ds, sc, bio.PhyDeriv(), bio.ZooDeriv(), params)
	row.Class, row.Method = "Model calibration", c.Name()
	row.Seconds = time.Since(start).Seconds()
	return row, err
}

func runGGGP(ds *dataset.Dataset, sc Scale, seed int64) (TableVRow, error) {
	start := time.Now()
	consts := bio.DefaultConstants()
	sim := dataset.ModelSimConfig(sc.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
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
	// GGGP follows the same protocol as GMR: each run starts from its own
	// pre-calibrated parameter vector, and the reported model is the
	// best-by-test-RMSE across runs (Section IV-D), guarded against
	// train-side divergence. The runs split the same total budget as a
	// single big run.
	lo, hi := calib.Box(consts)
	obj, err := calib.RiverObjective(forcing, obs, sim)
	if err != nil {
		return TableVRow{Method: "GGGP"}, err
	}
	runs := sc.GMRRuns
	if runs < 1 {
		runs = 1
	}
	popPerRun := sc.GGGPPop / runs
	if popPerRun < 20 {
		popPerRun = 20
	}
	var best TableVRow
	bestTrain := math.Inf(1)
	found := false
	for run := 0; run < runs; run++ {
		runSeed := seed + int64(run)*1009
		var c calib.Calibrator = calib.NewGA()
		if run%2 == 1 {
			c = calib.NewSA()
		}
		initParams, _ := c.Calibrate(obj, lo, hi, 3000, stats.NewRand(runSeed^0x5ca1ab1e))
		ind, err := gggp.Run(gggp.Config{
			PopSize: popPerRun, MaxGen: sc.GGGPGen, Seed: runSeed, InitParams: initParams,
		}, fitness)
		if err != nil {
			return TableVRow{Method: "GGGP"}, err
		}
		phy, zoo, err := gggp.Assemble(ind, grammar.DefaultExtensions())
		if err != nil {
			return TableVRow{Method: "GGGP"}, err
		}
		row, err := scoreProcess(ds, sc, phy, zoo, ind.Params)
		if err != nil {
			return TableVRow{Method: "GGGP"}, err
		}
		if row.TrainRMSE < bestTrain {
			bestTrain = row.TrainRMSE
		}
		if !found || (row.TestRMSE < best.TestRMSE && row.TrainRMSE <= 2*bestTrain) {
			best = row
			found = true
		}
	}
	best.Class, best.Method = "Model revision", "GGGP"
	best.Seconds = time.Since(start).Seconds()
	return best, nil
}

// RunGMR runs GMR at the given scale and returns both its Table V row and
// the full result (reused by the Figure 9/11 experiments). Cancelling ctx
// stops the evolutionary runs at the next generation barrier and reports
// the models evolved so far.
func RunGMR(ctx context.Context, ds *dataset.Dataset, sc Scale, seed int64) (TableVRow, *core.Result, error) {
	start := time.Now()
	cfg := gmrConfig(sc, seed)
	res, err := core.RunContext(ctx, ds, cfg)
	if err != nil {
		return TableVRow{Method: "GMR"}, nil, err
	}
	row := TableVRow{
		Class: "Model revision", Method: "GMR",
		TrainRMSE: res.TrainRMSE, TrainMAE: res.TrainMAE,
		TestRMSE: res.TestRMSE, TestMAE: res.TestMAE,
		Seconds: time.Since(start).Seconds(),
	}
	return row, res, nil
}

// dataFeatures extracts the data-driven methods' input features: the ten
// temporal variables at S1, or at all nine stations for the -All variants.
// The biomass itself is not an input: the data-driven baselines, like the
// process models, must forecast the test window from environmental drivers
// alone (free-run; see EXPERIMENTS.md).
func dataFeatures(ds *dataset.Dataset, all bool) [][]float64 {
	vi := bio.VarIndex()
	nv := len(bio.Variables())
	out := make([][]float64, ds.Days)
	stations := []string{"S1", "S2", "S3", "S4", "S5", "S6", "T1", "T2", "T3"}
	for t := 0; t < ds.Days; t++ {
		if !all {
			row := make([]float64, nv)
			for i, v := range bio.Variables() {
				row[i] = ds.Forcing[t][vi[v.Name]]
			}
			out[t] = row
			continue
		}
		row := make([]float64, 0, nv*len(stations))
		for _, s := range stations {
			row = append(row, ds.StationRaw[s][t]...)
		}
		out[t] = row
	}
	return out
}

func runRNN(ds *dataset.Dataset, sc Scale, seed int64, all bool) (TableVRow, error) {
	start := time.Now()
	name := "RNN-S1"
	if all {
		name = "RNN-All"
	}
	x := dataFeatures(ds, all)
	hidden := 0
	if all {
		// 90 inputs would make hidden=90 (paper's rule) very slow at
		// laptop scale; cap the hidden size while keeping the rule for
		// the S1 variant.
		hidden = 24
	}
	m, err := rnn.Train(x[:ds.TrainEnd], ds.ObsPhy[:ds.TrainEnd], rnn.Config{
		Epochs: sc.RNNEpochs, Seed: seed, Hidden: hidden,
	})
	if err != nil {
		return TableVRow{Method: name}, err
	}
	// Train window: predictions for y[1:trainEnd] from x[0:trainEnd-1].
	trPred := m.Predict(nil, x[:ds.TrainEnd-1])
	trObs := ds.ObsPhy[1:ds.TrainEnd]
	// Test window: warm the state through training, then predict
	// y[trainEnd:] from x[trainEnd-1 : days-1].
	tePred := m.Predict(x[:ds.TrainEnd-1], x[ds.TrainEnd-1:ds.Days-1])
	teObs := ds.ObsPhy[ds.TrainEnd:]
	return TableVRow{
		Class: "Data-driven", Method: name,
		TrainRMSE: metrics.RMSE(trPred, trObs),
		TrainMAE:  metrics.MAE(trPred, trObs),
		TestRMSE:  metrics.RMSE(tePred, teObs),
		TestMAE:   metrics.MAE(tePred, teObs),
		Seconds:   time.Since(start).Seconds(),
	}, nil
}

func runARIMAX(ds *dataset.Dataset, all bool) (TableVRow, error) {
	start := time.Now()
	name := "ARIMAX-S1"
	if all {
		name = "ARIMAX-All"
	}
	x := dataFeatures(ds, all)
	y := ds.ObsPhy
	m, err := arimax.AutoFit(y[:ds.TrainEnd], x[:ds.TrainEnd], 5, 2)
	if err != nil {
		return TableVRow{Method: name}, err
	}
	trPred, trObs, err := m.FittedOneStep(y[:ds.TrainEnd], x[:ds.TrainEnd])
	if err != nil {
		return TableVRow{Method: name}, err
	}
	tePred := m.ForecastRecursive(x[ds.TrainEnd:], 0)
	teObs := y[ds.TrainEnd:]
	return TableVRow{
		Class: "Data-driven", Method: name,
		TrainRMSE: metrics.RMSE(trPred, trObs),
		TrainMAE:  metrics.MAE(trPred, trObs),
		TestRMSE:  metrics.RMSE(tePred, teObs),
		TestMAE:   metrics.MAE(tePred, teObs),
		Seconds:   time.Since(start).Seconds(),
	}, nil
}
