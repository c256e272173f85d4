package calib

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/expr"
)

// cohortCalibrators returns the population methods that score whole cohorts
// per objective call.
func cohortCalibrators() []Calibrator {
	return []Calibrator{NewGA(), NewSCEUA(), NewDREAM()}
}

// oneAtATime feeds obj one vector per call, whatever cohort the calibrator
// passes, the way a sequential calibrator does (through single).
func oneAtATime(obj Objective) Objective {
	score := single(obj)
	return func(params [][]float64, out []float64) []float64 {
		for _, x := range params {
			out = append(out, score(x))
		}
		return out
	}
}

// recordingBatch wraps an objective and records the width of every call,
// for asserting that population calibrators actually batch their cohorts
// instead of degenerating to width-1 calls.
type recordingBatch struct {
	calls  int
	widths []int
	total  int
}

func (r *recordingBatch) wrap(obj Objective) Objective {
	return func(params [][]float64, out []float64) []float64 {
		r.calls++
		r.widths = append(r.widths, len(params))
		r.total += len(params)
		return obj(params, out)
	}
}

func (r *recordingBatch) maxWidth() int {
	w := 0
	for _, v := range r.widths {
		if v > w {
			w = v
		}
	}
	return w
}

// nanFaulted poisons a region of the search space with NaN, the way a
// quarantined simulation scores: calibrators must keep identical
// one-vector and cohort trajectories even when some cohort members come
// back NaN.
func nanFaulted(f func([]float64) float64) func([]float64) float64 {
	return func(x []float64) float64 {
		if math.Mod(math.Abs(x[0]*1e3), 7) < 1.5 {
			return math.NaN()
		}
		return f(x)
	}
}

// TestBatchMatchesScalarTrajectory is the core batching property: for every
// population calibrator, feeding the objective one vector per call and
// feeding it whole cohorts must follow the exact same trajectory — same RNG
// stream, bitwise-identical best point and fitness — including when the
// objective injects NaN faults.
func TestBatchMatchesScalarTrajectory(t *testing.T) {
	lo, hi := box(4, -2, 2)
	objs := map[string]Objective{
		"sphere":     perVector(sphere([]float64{0.5, -1.2, 1.7, 0.0})),
		"nan-fault":  perVector(nanFaulted(sphere([]float64{0.5, -1.2, 1.7, 0.0}))),
		"rosenbrock": perVector(func(x []float64) float64 { return rosenbrock2(x[:2]) }),
	}
	for _, c := range cohortCalibrators() {
		for name, obj := range objs {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				one := &recordingBatch{}
				xScalar, fScalar := c.Calibrate(oneAtATime(one.wrap(obj)), lo, hi, 900, rand.New(rand.NewSource(13)))
				rec := &recordingBatch{}
				xBatch, fBatch := c.Calibrate(rec.wrap(obj), lo, hi, 900, rand.New(rand.NewSource(13)))
				if math.Float64bits(fScalar) != math.Float64bits(fBatch) {
					t.Fatalf("fitness diverged: one-vector %v, cohort %v", fScalar, fBatch)
				}
				if len(xScalar) != len(xBatch) {
					t.Fatalf("dimension diverged: %d vs %d", len(xScalar), len(xBatch))
				}
				for i := range xScalar {
					if math.Float64bits(xScalar[i]) != math.Float64bits(xBatch[i]) {
						t.Fatalf("coordinate %d diverged: one-vector %v, cohort %v", i, xScalar[i], xBatch[i])
					}
				}
				if one.maxWidth() != 1 {
					t.Errorf("one-vector feeding saw a call of width %d", one.maxWidth())
				}
				if rec.maxWidth() < 2 {
					t.Errorf("objective never saw a cohort: widths %v", rec.widths)
				}
				if rec.total > 900+60 {
					t.Errorf("cohort path scored %d vectors for a budget of 900", rec.total)
				}
			})
		}
	}
}

// TestBatchBudgetExact verifies the cohort budget accounting: the vectors
// scored in cohorts equal the one-vector calls of the same run, and no
// phase overruns the budget by more than a warm-up cohort.
func TestBatchBudgetExact(t *testing.T) {
	lo, hi := box(3, 0, 1)
	obj := perVector(sphere([]float64{0.5, 0.5, 0.5}))
	for _, c := range cohortCalibrators() {
		one := &recordingBatch{}
		c.Calibrate(oneAtATime(one.wrap(obj)), lo, hi, 500, rand.New(rand.NewSource(9)))
		rec := &recordingBatch{}
		c.Calibrate(rec.wrap(obj), lo, hi, 500, rand.New(rand.NewSource(9)))
		if rec.total != one.calls {
			t.Errorf("%s: cohorts scored %d vectors, one-vector feeding %d", c.Name(), rec.total, one.calls)
		}
	}
}

// riverTestObjective builds the river objective over a short generated
// dataset, with its parameter box.
func riverTestObjective(t *testing.T) (obj Objective, lo, hi []float64) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = Box(bio.DefaultConstants())
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	obj, err = RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		t.Fatal(err)
	}
	return obj, lo, hi
}

// TestScalarBatchAppends pins the Objective contract on both of its paths:
// a one-vector call (the scalar loop) and a cohort call (the lanes) append
// their scores to out, preserving anything already there.
func TestScalarBatchAppends(t *testing.T) {
	obj, lo, hi := riverTestObjective(t)
	mid := make([]float64, len(lo))
	for i := range lo {
		mid[i] = (lo[i] + hi[i]) / 2
	}
	one := obj([][]float64{mid}, []float64{-1})
	if len(one) != 2 || one[0] != -1 {
		t.Fatalf("one-vector call returned %v appended to [-1]", one)
	}
	cohort := obj([][]float64{mid, lo, mid}, []float64{-1, -2})
	if len(cohort) != 5 || cohort[0] != -1 || cohort[1] != -2 {
		t.Fatalf("cohort call returned %v for 3 vectors appended to [-1 -2]", cohort)
	}
	for _, i := range []int{2, 4} {
		if math.Float64bits(cohort[i]) != math.Float64bits(one[1]) {
			t.Errorf("cohort score %d is %v, one-vector score %v", i, cohort[i], one[1])
		}
	}
}

// TestRiverBatchObjectiveMatchesScalar checks the river objective's cohort
// calls (the lanes) bit for bit against one-vector calls (the scalar loop),
// across random in-box vectors and hostile out-of-distribution corners that
// abort the integration.
func TestRiverBatchObjectiveMatchesScalar(t *testing.T) {
	obj, lo, hi := riverTestObjective(t)
	score := single(obj)
	rng := rand.New(rand.NewSource(21))
	var params [][]float64
	for i := 0; i < 2*expr.Lanes+3; i++ { // odd width: full lanes + ragged tail
		params = append(params, uniformBox(rng, lo, hi))
	}
	params = append(params, lo, hi) // box corners stress the integrator
	out := obj(params, nil)
	if len(out) != len(params) {
		t.Fatalf("cohort call returned %d scores for %d vectors", len(out), len(params))
	}
	for i, x := range params {
		want := score(x)
		if math.Float64bits(want) != math.Float64bits(out[i]) {
			t.Errorf("vector %d: one-vector %v, cohort %v", i, want, out[i])
		}
	}
	// Second call with a reused out slice must keep appending correctly.
	again := obj(params[:3], out[:0])
	for i := 0; i < 3; i++ {
		if math.Float64bits(again[i]) != math.Float64bits(out[i]) && !math.IsNaN(again[i]) {
			t.Errorf("reused-buffer call diverged at %d", i)
		}
	}
}

// TestRiverBatchCalibrationEndToEnd runs each population calibrator over
// the river objective fed whole cohorts (the lanes) and one vector per call
// (the scalar loop): the results must match exactly, so the Table V
// pipeline's cohort scoring changes no reported number.
func TestRiverBatchCalibrationEndToEnd(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	lo, hi := Box(consts)
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	obj, err := RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cohortCalibrators() {
		xs, fs := c.Calibrate(oneAtATime(obj), lo, hi, 400, rand.New(rand.NewSource(2)))
		xb, fb := c.Calibrate(obj, lo, hi, 400, rand.New(rand.NewSource(2)))
		if math.Float64bits(fs) != math.Float64bits(fb) {
			t.Errorf("%s: one-vector feeding found %v, cohorts %v", c.Name(), fs, fb)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(xb[i]) {
				t.Errorf("%s: parameter %d diverged: %v vs %v", c.Name(), i, xs[i], xb[i])
			}
		}
	}
}
