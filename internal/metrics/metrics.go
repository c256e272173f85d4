// Package metrics implements the forecast-accuracy measures used in the
// paper's evaluation (Section IV-C): RMSE and MAE.
package metrics

import "math"

// RMSE returns the root mean square error between predicted and observed
// series. It returns +Inf when the lengths differ or the series are empty,
// or when any prediction or observation is NaN/Inf, so that invalid models
// always lose (and a corrupt observation column can never smuggle a NaN
// into a fitness comparison, where it would poison sorting).
func RMSE(pred, obs []float64) float64 {
	if len(pred) != len(obs) || len(pred) == 0 {
		return math.Inf(1)
	}
	var sse float64
	for i := range pred {
		if !finite(pred[i]) || !finite(obs[i]) {
			return math.Inf(1)
		}
		d := pred[i] - obs[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(pred)))
}

// MAE returns the mean absolute error between predicted and observed series,
// with the same invalid-input conventions as RMSE.
func MAE(pred, obs []float64) float64 {
	if len(pred) != len(obs) || len(pred) == 0 {
		return math.Inf(1)
	}
	var sae float64
	for i := range pred {
		if !finite(pred[i]) || !finite(obs[i]) {
			return math.Inf(1)
		}
		sae += math.Abs(pred[i] - obs[i])
	}
	return sae / float64(len(pred))
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
