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
// candidates for fixing at their priors.
func AnalyzeParamSensitivity(ind *gp.Individual, consts []bio.Constant, forcing [][]float64, sim bio.SimConfig) ([]ParamSensitivity, error) {
	if ind == nil {
		return nil, fmt.Errorf("core: nil individual")
	}
	m, err := evalx.Compile(ind, consts)
	if err != nil {
		return nil, err
	}
	base := m.Predict(forcing, ind.Params, sim)
	scale := stats.Mean(base)
	if scale <= 0 || math.IsNaN(scale) {
		return nil, fmt.Errorf("core: degenerate baseline forecast")
	}
	var out []ParamSensitivity
	for i, c := range consts {
		if i >= len(ind.Params) {
			break
		}
		params := append([]float64(nil), ind.Params...)
		delta := 0.1 * params[i]
		if delta == 0 {
			delta = 0.1 * (c.Max - c.Min)
		}
		params[i] += delta
		moved := m.Predict(forcing, params, sim)
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
