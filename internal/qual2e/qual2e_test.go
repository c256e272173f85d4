package qual2e

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/dataset"
	"gmr/internal/stats"
)

func row(light, n, p, tmp float64) []float64 {
	vi := bio.VarIndex()
	r := make([]float64, bio.NumVars)
	r[vi["Vlgt"]] = light
	r[vi["Vn"]] = n
	r[vi["Vp"]] = p
	r[vi["Vtmp"]] = tmp
	return r
}

func TestVectorRoundTrip(t *testing.T) {
	p := DefaultParams()
	back, err := FromVector(p.Vector())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Errorf("round trip changed params: %+v vs %+v", back, p)
	}
	if _, err := FromVector([]float64{1, 2}); err == nil {
		t.Error("short vector accepted")
	}
	lo, hi := Bounds()
	v := p.Vector()
	for i := range v {
		if v[i] < lo[i] || v[i] > hi[i] {
			t.Errorf("default param %d = %v outside bounds [%v, %v]", i, v[i], lo[i], hi[i])
		}
	}
}

func TestPredictMonotoneInDrivers(t *testing.T) {
	p := DefaultParams()
	// More light → more algae (all else equal, below saturation).
	dark := Predict([][]float64{row(2, 1, 0.05, 20)}, p)[0]
	bright := Predict([][]float64{row(25, 1, 0.05, 20)}, p)[0]
	if bright <= dark {
		t.Errorf("light had no positive effect: %v vs %v", bright, dark)
	}
	// Scarcer phosphorus → fewer algae.
	rich := Predict([][]float64{row(20, 1, 0.08, 20)}, p)[0]
	poor := Predict([][]float64{row(20, 1, 0.004, 20)}, p)[0]
	if poor >= rich {
		t.Errorf("phosphorus limitation missing: %v vs %v", poor, rich)
	}
	// Warmer water → faster growth (Arrhenius).
	cold := Predict([][]float64{row(20, 1, 0.05, 8)}, p)[0]
	warm := Predict([][]float64{row(20, 1, 0.05, 26)}, p)[0]
	if warm <= cold {
		t.Errorf("temperature correction missing: %v vs %v", warm, cold)
	}
}

func TestSteadyStateHasNoMemory(t *testing.T) {
	// The defining limitation: identical conditions give identical
	// predictions regardless of history.
	p := DefaultParams()
	a := row(15, 1.5, 0.05, 18)
	bloomDay := row(30, 3, 0.1, 27)
	seq1 := Predict([][]float64{a, a, a}, p)
	seq2 := Predict([][]float64{bloomDay, bloomDay, a}, p)
	if seq1[2] != seq2[2] {
		t.Errorf("steady-state model has memory: %v vs %v", seq1[2], seq2[2])
	}
}

func TestPredictBounded(t *testing.T) {
	p := DefaultParams()
	p.MuMax = 4
	p.TravelDays = 12
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := row(rng.Float64()*40, rng.Float64()*5, rng.Float64()*0.2, rng.Float64()*35)
		v := Predict([][]float64{r}, p)[0]
		if math.IsNaN(v) || v < 1e-3 || v > 1e5 {
			t.Fatalf("prediction %v out of bounds", v)
		}
	}
}

// TestCalibratedQual2EUnderperformsDynamicModel demonstrates the paper's
// point: even calibrated, the steady-state model cannot match a calibrated
// dynamic process model on the synthetic river data.
func TestCalibratedQual2EUnderperformsDynamicModel(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	lo, hi := Bounds()
	rng := stats.NewRand(3)
	_, q2eRMSE := calib.NewSA().Calibrate(Objective(forcing, obs), lo, hi, 2500, rng)

	dynObj, err := calib.RiverObjective(forcing, obs, dataset.ModelSimConfig(2, obs[0], ds.ObsZoo[0]))
	if err != nil {
		t.Fatal(err)
	}
	dlo, dhi := calib.Box(bio.DefaultConstants())
	_, dynRMSE := calib.NewSA().Calibrate(dynObj, dlo, dhi, 2500, stats.NewRand(3))
	if q2eRMSE <= dynRMSE {
		t.Errorf("steady-state QUAL2E (%v) unexpectedly beat the dynamic model (%v)", q2eRMSE, dynRMSE)
	}
}
