package calib

import (
	"gmr/internal/bio"
	"gmr/internal/metrics"
)

// RiverObjective builds the case study's calibration objective: training
// RMSE of the fixed manual process of equations (1) and (2) under each
// candidate parameter vector. Only the parameters vary — the model
// structure never does, which is exactly what separates model calibration
// from model revision in Table I — so the process is compiled once and its
// exogenous plan opened once per objective (the first call fills it). The
// returned closure is StructureObjective's.
func RiverObjective(forcing [][]float64, obs []float64, sim bio.SimConfig) (Objective, error) {
	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		return nil, err
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		return nil, err
	}
	return StructureObjective(sys, forcing, obs, sim), nil
}

// StructureObjective scores the training RMSE of a compiled structure under
// each candidate parameter vector. Each call scores its vectors through
// one bio.KernelLanes call over a plan opened once: a cohort on the lanes,
// a lone vector on the scalar loop, with bitwise-identical scores either
// way. Posterior sampling around a revised champion (gmr -export-model
// -posterior N) uses it directly: the structure is the GP winner's, only
// its parameters vary. The per-member prediction buffers grow to the
// largest cohort seen and are reused afterwards; the returned closure is
// not safe for concurrent calls.
func StructureObjective(sys *bio.SegSystem, forcing [][]float64, obs []float64, sim bio.SimConfig) Objective {
	plan := sys.NewExogPlan(forcing)
	var sc bio.SimScratch
	var preds [][]float64
	hook := func(m, _ int, bphy float64) bool {
		preds[m] = bio.AppendPrediction(preds[m], bphy)
		return true
	}
	return func(params [][]float64, out []float64) []float64 {
		for len(preds) < len(params) {
			preds = append(preds, nil)
		}
		for i := range params {
			preds[i] = preds[i][:0]
		}
		sys.KernelLanes(plan, sim, &sc, params, hook, nil)
		for i := range params {
			out = append(out, metrics.RMSE(preds[i], obs))
		}
		return out
	}
}

// Box extracts the lower/upper calibration bounds from Table III constants.
func Box(consts []bio.Constant) (lo, hi []float64) {
	lo = make([]float64, len(consts))
	hi = make([]float64, len(consts))
	for i, c := range consts {
		lo[i], hi[i] = c.Min, c.Max
	}
	return lo, hi
}
