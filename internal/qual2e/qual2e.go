// Package qual2e implements a compact steady-state stream water-quality
// model in the style of QUAL2E (Brown & Barnwell 1987), the classic river
// model the paper's Related Work discusses: each day is treated as an
// independent steady state, and algal biomass is propagated analytically
// along the river reaches from an upstream boundary, growing or decaying
// exponentially with travel time under light/nutrient/temperature
// limitation. Its defining assumption — steady-state flow, no inter-day
// dynamics — is exactly what the paper cites as the reason for its limited
// accuracy; the package exists to make that comparison measurable.
package qual2e

import (
	"fmt"
	"math"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/metrics"
)

// Params are the model's kinetic constants.
type Params struct {
	// MuMax is the maximum algal growth rate (day⁻¹).
	MuMax float64
	// Resp is the algal respiration rate (day⁻¹).
	Resp float64
	// Settle is the settling loss rate (day⁻¹).
	Settle float64
	// KLight, KN, KP are half-saturation constants for light and
	// nutrients (Michaelis–Menten, QUAL2E's limitation form).
	KLight, KN, KP float64
	// Theta is the Arrhenius temperature coefficient (QUAL2E uses
	// ~1.047 for algal growth).
	Theta float64
	// Boundary is the upstream boundary algal biomass (µg/L).
	Boundary float64
	// TravelDays is the total travel time from the boundary to the
	// prediction station.
	TravelDays float64
}

// DefaultParams returns literature-style defaults.
func DefaultParams() Params {
	return Params{
		MuMax:      2.0,
		Resp:       0.15,
		Settle:     0.15,
		KLight:     8.0,
		KN:         0.3,
		KP:         0.02,
		Theta:      1.047,
		Boundary:   5.0,
		TravelDays: 6.0,
	}
}

// Bounds returns calibration bounds for the parameter vector layout used
// by Vector/FromVector.
func Bounds() (lo, hi []float64) {
	lo = []float64{0.5, 0.02, 0.02, 2, 0.05, 0.002, 1.01, 0.5, 2}
	hi = []float64{4.0, 0.5, 0.5, 20, 1.0, 0.1, 1.09, 50, 12}
	return lo, hi
}

// Vector flattens the parameters for calibrators.
func (p Params) Vector() []float64 {
	return []float64{p.MuMax, p.Resp, p.Settle, p.KLight, p.KN, p.KP, p.Theta, p.Boundary, p.TravelDays}
}

// FromVector rebuilds Params from a calibrator vector.
func FromVector(v []float64) (Params, error) {
	if len(v) != 9 {
		return Params{}, fmt.Errorf("qual2e: parameter vector has %d entries, want 9", len(v))
	}
	return Params{
		MuMax: v[0], Resp: v[1], Settle: v[2],
		KLight: v[3], KN: v[4], KP: v[5],
		Theta: v[6], Boundary: v[7], TravelDays: v[8],
	}, nil
}

// Predict computes the steady-state algal biomass at the prediction
// station for each day of the forcing (bio variable layout): the boundary
// biomass grows/decays exponentially over the travel time at that day's
// net rate. Every day is independent — the steady-state assumption.
func Predict(forcing [][]float64, p Params) []float64 {
	vi := bio.VarIndex()
	out := make([]float64, len(forcing))
	for t, row := range forcing {
		light := row[vi["Vlgt"]]
		n := row[vi["Vn"]]
		ph := row[vi["Vp"]]
		tmp := row[vi["Vtmp"]]
		// QUAL2E limitation: Michaelis–Menten light and nutrients,
		// Arrhenius temperature correction around 20°C.
		fl := light / (p.KLight + light)
		fn := math.Min(n/(p.KN+n), ph/(p.KP+ph))
		ftheta := math.Pow(p.Theta, tmp-20)
		mu := p.MuMax * fl * fn * ftheta
		net := mu - p.Resp - p.Settle
		a := p.Boundary * math.Exp(net*p.TravelDays)
		// Physical bounds mirror the dynamic simulator's clamps.
		out[t] = math.Min(math.Max(a, 1e-3), 1e5)
	}
	return out
}

// Objective is the steady-state model's calibration objective: RMSE of
// Predict over forcing against obs for each parameter vector (+Inf for a
// vector FromVector rejects).
func Objective(forcing [][]float64, obs []float64) calib.Objective {
	return func(vs [][]float64, out []float64) []float64 {
		for _, v := range vs {
			p, err := FromVector(v)
			if err != nil {
				out = append(out, math.Inf(1))
				continue
			}
			out = append(out, metrics.RMSE(Predict(forcing, p), obs))
		}
		return out
	}
}
