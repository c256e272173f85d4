package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestRMSEAndMAEKnownValues(t *testing.T) {
	pred := []float64{1, 2, 3}
	obs := []float64{1, 2, 3}
	if v := RMSE(pred, obs); v != 0 {
		t.Errorf("RMSE identical series = %v", v)
	}
	if v := MAE(pred, obs); v != 0 {
		t.Errorf("MAE identical series = %v", v)
	}
	pred = []float64{2, 4}
	obs = []float64{0, 0}
	if v := RMSE(pred, obs); math.Abs(v-math.Sqrt(10)) > 1e-12 {
		t.Errorf("RMSE = %v, want sqrt(10)", v)
	}
	if v := MAE(pred, obs); v != 3 {
		t.Errorf("MAE = %v, want 3", v)
	}
}

func TestInvalidInputsLose(t *testing.T) {
	if !math.IsInf(RMSE(nil, nil), 1) {
		t.Error("empty RMSE should be +Inf")
	}
	if !math.IsInf(RMSE([]float64{1}, []float64{1, 2}), 1) {
		t.Error("mismatched RMSE should be +Inf")
	}
	if !math.IsInf(RMSE([]float64{math.NaN()}, []float64{1}), 1) {
		t.Error("NaN prediction RMSE should be +Inf")
	}
	if !math.IsInf(MAE([]float64{math.Inf(1)}, []float64{1}), 1) {
		t.Error("Inf prediction MAE should be +Inf")
	}
}

// Property: MAE <= RMSE for any series (Jensen), and both are
// translation-invariant.
func TestMAELeqRMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		pred := make([]float64, n)
		obs := make([]float64, n)
		for i := range pred {
			pred[i] = rng.NormFloat64() * 5
			obs[i] = rng.NormFloat64() * 5
		}
		mae, rmse := MAE(pred, obs), RMSE(pred, obs)
		if mae > rmse+1e-12 {
			t.Fatalf("MAE %v > RMSE %v", mae, rmse)
		}
		shiftP := make([]float64, n)
		shiftO := make([]float64, n)
		for i := range pred {
			shiftP[i] = pred[i] + 100
			shiftO[i] = obs[i] + 100
		}
		if math.Abs(RMSE(shiftP, shiftO)-rmse) > 1e-9 {
			t.Fatal("RMSE not translation invariant")
		}
	}
}
