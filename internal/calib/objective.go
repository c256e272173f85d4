package calib

import (
	"math"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/metrics"
)

// riverSystem compiles the fixed manual process of equations (1) and (2)
// onto the segmented register VM and hoists its exogenous plan over the
// calibration window: the structure never changes during calibration, so
// both are built once per objective.
func riverSystem(forcing [][]float64) (*bio.SegSystem, *bio.ExogPlan, error) {
	phy, zoo, _, err := bio.ManualSystem()
	if err != nil {
		return nil, nil, err
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		return nil, nil, err
	}
	return sys, sys.BuildExogPlan(forcing), nil
}

// RiverObjective builds the case study's calibration objective: training
// RMSE of the fixed manual process of equations (1) and (2) under the
// candidate parameter vector. Only the parameters vary — the model
// structure never does, which is exactly what separates model calibration
// from model revision in Table I. Each call runs the parameter prologue and
// the segmented kernel over the hoisted plan. The returned closure reuses
// internal buffers and is not safe for concurrent calls.
func RiverObjective(forcing [][]float64, obs []float64, sim bio.SimConfig) (Objective, error) {
	sys, plan, err := riverSystem(forcing)
	if err != nil {
		return nil, err
	}
	var sc bio.SimScratch
	return func(params []float64) float64 {
		sys.Prologue(params, &sc)
		return metrics.RMSE(sys.Kernel(plan, sim, &sc, nil), obs)
	}, nil
}

// RiverBatchObjective is the lane-batched form of RiverObjective: the same
// compiled system and hoisted plan, but each call scores a whole population
// through bio.KernelLanes — every STEP instruction dispatched once per
// expr.Lanes parameter vectors instead of once per vector (DESIGN.md §11).
// Scores are bitwise identical to RiverObjective's (the lane kernel
// reproduces the scalar kernel bit for bit, and aborted members yield the
// same truncated NaN-terminated prediction series). The returned closure
// reuses internal buffers and is not safe for concurrent calls.
func RiverBatchObjective(forcing [][]float64, obs []float64, sim bio.SimConfig) (BatchObjective, error) {
	sys, plan, err := riverSystem(forcing)
	if err != nil {
		return nil, err
	}
	return planBatchObjective(sys, plan, obs, sim), nil
}

// StructureBatchObjective is RiverBatchObjective for an arbitrary compiled
// structure: training RMSE of sys under the candidate parameter vector,
// scored through the lane kernel. This is what posterior sampling around a
// revised champion uses (gmr -export-model -posterior N): the structure is
// the GP winner's, only its parameters vary. The returned closure reuses
// internal buffers and is not safe for concurrent calls.
func StructureBatchObjective(sys *bio.SegSystem, forcing [][]float64, obs []float64, sim bio.SimConfig) BatchObjective {
	return planBatchObjective(sys, sys.BuildExogPlan(forcing), obs, sim)
}

// planBatchObjective scores populations of sys over a prebuilt plan.
func planBatchObjective(sys *bio.SegSystem, plan *bio.ExogPlan, obs []float64, sim bio.SimConfig) BatchObjective {
	var sc bio.SimScratch
	var preds [expr.Lanes][]float64
	return func(params [][]float64, out []float64) []float64 {
		for base := 0; base < len(params); base += expr.Lanes {
			end := base + expr.Lanes
			if end > len(params) {
				end = len(params)
			}
			chunk := params[base:end]
			for i := range chunk {
				preds[i] = preds[i][:0]
			}
			sys.PrologueLanes(chunk, &sc)
			sys.KernelLanes(plan, sim, &sc, len(chunk), func(m, t int, bphy float64) bool {
				// The scalar kernel records NaN for the day a member's
				// state goes non-finite and stops; mirror that here so
				// RMSE sees the same truncated series.
				if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
					preds[m] = append(preds[m], math.NaN())
					return false
				}
				preds[m] = append(preds[m], bphy)
				return true
			})
			for i := range chunk {
				out = append(out, metrics.RMSE(preds[i], obs))
			}
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
