// Riverforecast is the full case study of the paper at example scale:
// compare the MANUAL knowledge-driven model, a calibrated model (SA), and
// GMR on the synthetic Nakdong dataset; then analyze which variables the
// revised models recruited (the paper's Figure 9 question: did the revision
// discover the pH connection?).
package main

import (
	"fmt"
	"log"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
	"gmr/internal/metrics"
	"gmr/internal/stats"
)

func main() {
	ds, err := dataset.Generate(dataset.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	consts := bio.DefaultConstants()
	simTr := dataset.ModelSimConfig(2, ds.ObsPhy[0], ds.ObsZoo[0])
	simTe := dataset.ModelSimConfig(2, ds.ObsPhy[ds.TrainEnd], ds.ObsZoo[ds.TrainEnd])

	// MANUAL: equations (1)–(2) at Table III means.
	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		log.Fatal(err)
	}
	manual := bio.Means(consts)
	report := func(name string, params []float64) {
		tr := sys.Predict(ds.TrainForcing(), params, simTr)
		te := sys.Predict(ds.TestForcing(), params, simTe)
		fmt.Printf("%-12s train RMSE %8.2f | test RMSE %8.2f MAE %8.2f\n", name,
			metrics.RMSE(tr, ds.TrainObsPhy()),
			metrics.RMSE(te, ds.TestObsPhy()), metrics.MAE(te, ds.TestObsPhy()))
	}
	report("MANUAL", manual)

	// Model calibration: simulated annealing over the Table III box.
	obj, err := calib.RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), simTr)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := calib.Box(consts)
	calibrated, _ := calib.NewSA().Calibrate(obj, lo, hi, 4000, stats.NewRand(3))
	report("SA-calib", calibrated)

	// Model revision: GMR.
	res, err := core.Run(ds, core.Config{
		GP:   gp.Config{PopSize: 120, MaxGen: 40, LocalSearchSteps: 5, Seed: 1},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(2, 0, 0)),
		Runs: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s train RMSE %8.2f | test RMSE %8.2f MAE %8.2f\n",
		"GMR", res.TrainRMSE, res.TestRMSE, res.TestMAE)

	fmt.Println("\nbest revised process:")
	fmt.Println("  dBPhy/dt =", res.BestPhy.Pretty())
	fmt.Println("  dBZoo/dt =", res.BestZoo.Pretty())

	// Ecological analysis (Figure 9): which variables did the best
	// models recruit, and how do they correlate with biomass?
	window := ds.TrainForcing()[:730]
	sel, err := core.AnalyzeSelectivity(res.TopModels, consts, window, simTr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvariable selectivity among the %d best models:\n", len(res.TopModels))
	for _, s := range sel {
		fmt.Printf("  %-5s %5.1f%%  %s\n", s.Variable, s.Percent, s.Correlation)
	}
}
