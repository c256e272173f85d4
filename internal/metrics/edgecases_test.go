package metrics

import (
	"math"
	"testing"
)

// TestMetricEdgeCases drives both metrics through the degenerate-input
// table: empty series, a single point, all-NaN series (either side), ±Inf
// contamination, constant series (zero variance), and mismatched lengths.
// Every metric must return its documented worst-case sentinel — never NaN,
// and never panic (e.g. divide-by-zero on zero variance).
func TestMetricEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		pred, obs []float64
	}{
		{"empty", nil, nil},
		{"empty non-nil", []float64{}, []float64{}},
		{"single point", []float64{1}, []float64{2}},
		{"all-NaN pred", []float64{nan, nan, nan}, []float64{1, 2, 3}},
		{"all-NaN obs", []float64{1, 2, 3}, []float64{nan, nan, nan}},
		{"NaN tail", []float64{1, 2, nan}, []float64{1, 2, 3}},
		{"+Inf pred", []float64{1, math.Inf(1), 3}, []float64{1, 2, 3}},
		{"-Inf obs", []float64{1, 2, 3}, []float64{1, math.Inf(-1), 3}},
		{"constant obs", []float64{1, 2, 3}, []float64{5, 5, 5}},
		{"constant both", []float64{4, 4, 4}, []float64{5, 5, 5}},
		{"length mismatch", []float64{1, 2}, []float64{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if v := RMSE(tc.pred, tc.obs); math.IsNaN(v) {
				t.Errorf("RMSE = NaN")
			}
			if v := MAE(tc.pred, tc.obs); math.IsNaN(v) {
				t.Errorf("MAE = NaN")
			}
		})
	}

	// Sentinel spot-checks: degenerate inputs land on the documented
	// worst-case values, not merely "not NaN".
	if v := RMSE([]float64{1, 2, nan}, []float64{1, 2, 3}); !math.IsInf(v, 1) {
		t.Errorf("RMSE with NaN pred = %v, want +Inf", v)
	}
	if v := RMSE([]float64{1, 2, 3}, []float64{nan, nan, nan}); !math.IsInf(v, 1) {
		t.Errorf("RMSE with all-NaN obs = %v, want +Inf", v)
	}
	if v := MAE(nil, nil); !math.IsInf(v, 1) {
		t.Errorf("MAE(empty) = %v, want +Inf", v)
	}
}
