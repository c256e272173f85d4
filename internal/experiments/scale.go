// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic Nakdong dataset: Table V /
// Figure 1 (forecasting accuracy of 16 methods), Figure 9 (variable
// selectivity), Figure 10 (speedup techniques), and Figure 11 (evaluation
// short-circuiting thresholds). The cmd/riverbench binary is a thin CLI
// over this package, and the root bench_test.go benchmarks the same
// workloads under testing.B.
package experiments

import (
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
)

// Scale bundles the budget knobs of every method so that the full suite can
// run at laptop scale by default while remaining expressible at the paper's
// scale (Appendix B).
type Scale struct {
	Name string
	// GMR (and per-run GP) budgets.
	GMRPop, GMRGen, GMRRuns, GMRLocalSearch int
	// GGGP budgets (the paper uses 6× the GMR population to equalize
	// fitness evaluations with GMR's local search).
	GGGPPop, GGGPGen int
	// CalibBudget is the objective-evaluation budget per calibrator.
	CalibBudget int
	// RNNEpochs is the LSTM training budget.
	RNNEpochs int
	// SubSteps is the simulator resolution (Euler substeps per day).
	SubSteps int
	// TopK for the Figure 9 analysis.
	TopK int
}

// Small is the quick-look scale (seconds per method).
var Small = Scale{
	Name:   "small",
	GMRPop: 60, GMRGen: 15, GMRRuns: 1, GMRLocalSearch: 3,
	GGGPPop: 240, GGGPGen: 15,
	CalibBudget: 1500,
	RNNEpochs:   40,
	SubSteps:    2,
	TopK:        20,
}

// Medium is the default reporting scale (a few minutes per method).
var Medium = Scale{
	Name:   "medium",
	GMRPop: 150, GMRGen: 60, GMRRuns: 6, GMRLocalSearch: 6,
	GGGPPop: 600, GGGPGen: 60,
	CalibBudget: 12000,
	RNNEpochs:   150,
	SubSteps:    2,
	TopK:        50,
}

// Paper is the Appendix B configuration (hours of compute; 60 runs).
var Paper = Scale{
	Name:   "paper",
	GMRPop: 200, GMRGen: 100, GMRRuns: 60, GMRLocalSearch: 5,
	GGGPPop: 1200, GGGPGen: 100,
	CalibBudget: 120000,
	RNNEpochs:   1000,
	SubSteps:    4,
	TopK:        50,
}

// ScaleByName resolves "small", "medium", or "paper".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "small":
		return Small, true
	case "medium":
		return Medium, true
	case "paper":
		return Paper, true
	}
	return Scale{}, false
}

// gmrConfig assembles the core.Config for a scale.
func gmrConfig(sc Scale, seed int64) core.Config {
	return core.Config{
		GP: gp.Config{
			PopSize:          sc.GMRPop,
			MaxGen:           sc.GMRGen,
			LocalSearchSteps: sc.GMRLocalSearch,
			Seed:             seed,
		},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(sc.SubSteps, 0, 0)),
		Runs: sc.GMRRuns,
		TopK: sc.TopK,
	}
}
