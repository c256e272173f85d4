package core

import (
	"fmt"
	"math"
	"sort"

	"gmr/internal/bio"
	"gmr/internal/evalx"
	"gmr/internal/gp"
	"gmr/internal/stats"
)

// ParamSensitivity reports how strongly one Table III constant drives a
// revised model's forecast: the mean absolute relative change of the
// predicted biomass under a +10% perturbation of the constant.
type ParamSensitivity struct {
	Name string
	// Relative is mean(|ΔB|)/mean(B) under the perturbation.
	Relative float64
}

// AnalyzeParamSensitivity perturbs each constant of the individual's
// parameter vector by +10% (or +10% of its prior range when the value is
// zero) and measures the forecast response over the forcing window. It
// complements the Figure 9 variable-perturbation analysis on the parameter
// side: constants whose perturbation barely moves the forecast are
// candidates for fixing at their priors. The baseline and every perturbed
// copy are simulated in one KernelLanes call over one exogenous plan.
func AnalyzeParamSensitivity(ind *gp.Individual, consts []bio.Constant, forcing [][]float64, sim bio.SimConfig) ([]ParamSensitivity, error) {
	if ind == nil {
		return nil, fmt.Errorf("core: nil individual")
	}
	m, err := evalx.Compile(ind, consts)
	if err != nil {
		return nil, err
	}
	consts = consts[:min(len(consts), len(ind.Params))]
	params := [][]float64{ind.Params}
	for i, c := range consts {
		p := append([]float64(nil), ind.Params...)
		delta := 0.1 * p[i]
		if delta == 0 {
			delta = 0.1 * (c.Max - c.Min)
		}
		p[i] += delta
		params = append(params, p)
	}
	preds := make([][]float64, len(params))
	m.KernelLanes(m.NewExogPlan(forcing), sim, &bio.SimScratch{}, params, func(k, _ int, bphy float64) bool {
		preds[k] = bio.AppendPrediction(preds[k], bphy)
		return true
	}, nil)
	base := preds[0]
	scale := stats.Mean(base)
	if scale <= 0 || math.IsNaN(scale) {
		return nil, fmt.Errorf("core: degenerate baseline forecast")
	}
	out := make([]ParamSensitivity, 0, len(consts))
	for i, c := range consts {
		moved := preds[1+i]
		var sum float64
		for j := range moved {
			sum += math.Abs(moved[j] - base[j])
		}
		out = append(out, ParamSensitivity{
			Name:     c.Name,
			Relative: sum / float64(len(moved)) / scale,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Relative > out[j].Relative })
	return out, nil
}
