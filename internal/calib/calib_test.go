package calib

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
)

// perVector builds an Objective that scores each vector of a call with f.
func perVector(f func(x []float64) float64) Objective {
	return func(params [][]float64, out []float64) []float64 {
		for _, x := range params {
			out = append(out, f(x))
		}
		return out
	}
}

// sphere is a convex test function with optimum at center.
func sphere(center []float64) func(x []float64) float64 {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

// rosenbrock2 is the classic banana function in 2-D (optimum at (1,1)).
func rosenbrock2(x []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}

func box(d int, lo, hi float64) (l, h []float64) {
	l, h = make([]float64, d), make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestAllCalibratorsOnSphere(t *testing.T) {
	lo, hi := box(4, -2, 2)
	center := []float64{0.5, -1.2, 1.7, 0.0}
	// Pure space-filling samplers (MC, LHS) converge at the slow
	// d-dimensional Monte Carlo rate; adaptive methods should get much
	// closer with the same budget.
	tol := map[string]float64{"MC": 0.4, "LHS": 0.4}
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			x, f := c.Calibrate(perVector(sphere(center)), lo, hi, 3000, rng)
			if len(x) != 4 {
				t.Fatalf("returned %d-dim point", len(x))
			}
			want := 0.05
			if v, ok := tol[c.Name()]; ok {
				want = v
			}
			if f > want {
				t.Errorf("%s: best objective %v on sphere, want < %v", c.Name(), f, want)
			}
			for i := range x {
				if x[i] < lo[i] || x[i] > hi[i] {
					t.Errorf("%s: coordinate %d = %v outside box", c.Name(), i, x[i])
				}
			}
			// Reported value must match the reported point.
			if got := sphere(center)(x); math.Abs(got-f) > 1e-12 {
				t.Errorf("%s: reported %v but point scores %v", c.Name(), f, got)
			}
		})
	}
}

func TestLocalOptimizersOnRosenbrock(t *testing.T) {
	lo, hi := box(2, -2, 2)
	for _, c := range []Calibrator{NewMLE(), NewSCEUA(), NewGA(), NewDREAM()} {
		rng := rand.New(rand.NewSource(3))
		_, f := c.Calibrate(perVector(rosenbrock2), lo, hi, 6000, rng)
		if f > 0.5 {
			t.Errorf("%s: Rosenbrock best %v, want < 0.5", c.Name(), f)
		}
	}
}

func TestCalibratorsRespectBudgetRoughly(t *testing.T) {
	// Budget is a unit of objective evaluations; methods may not exceed
	// it by more than a complex/population worth of warm-up.
	lo, hi := box(3, 0, 1)
	for _, c := range All() {
		count := 0
		obj := func(x []float64) float64 {
			count++
			return sphere([]float64{0.5, 0.5, 0.5})(x)
		}
		rng := rand.New(rand.NewSource(1))
		budget := 500
		c.Calibrate(perVector(obj), lo, hi, budget, rng)
		if count > budget+60 {
			t.Errorf("%s used %d evaluations for a budget of %d", c.Name(), count, budget)
		}
		if count < budget/2 {
			t.Errorf("%s used only %d evaluations of %d (wasted budget)", c.Name(), count, budget)
		}
	}
}

func TestCalibratorDeterminism(t *testing.T) {
	lo, hi := box(3, -1, 1)
	for _, c := range All() {
		run := func() float64 {
			rng := rand.New(rand.NewSource(11))
			_, f := c.Calibrate(perVector(sphere([]float64{0.2, 0.2, 0.2})), lo, hi, 800, rng)
			return f
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: same seed gave %v then %v", c.Name(), a, b)
		}
	}
}

// TestRiverObjectiveCalibrationImprovesOnManual is the Table V shape at
// small scale: calibrating the manual process must improve dramatically on
// the uncalibrated Table III means.
func TestRiverObjectiveCalibrationImprovesOnManual(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	obj, err := RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := Box(consts)
	manual := single(obj)(bio.Means(consts))
	rng := rand.New(rand.NewSource(2))
	params, f := NewGA().Calibrate(obj, lo, hi, 600, rng)
	if f >= manual/10 {
		t.Errorf("calibrated RMSE %v not ≪ manual %v", f, manual)
	}
	for i := range params {
		if params[i] < lo[i] || params[i] > hi[i] {
			t.Errorf("calibrated parameter %d = %v outside Table III bounds", i, params[i])
		}
	}
}

func TestBoxMatchesTableIII(t *testing.T) {
	consts := bio.DefaultConstants()
	lo, hi := Box(consts)
	if len(lo) != 16 || len(hi) != 16 {
		t.Fatal("box dimension != 16")
	}
	for i, c := range consts {
		if lo[i] != c.Min || hi[i] != c.Max {
			t.Errorf("%s box [%v,%v] != Table III [%v,%v]", c.Name, lo[i], hi[i], c.Min, c.Max)
		}
	}
}
