package calib

import (
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
)

// riverOps builds RiverObjective over a two-year training window and
// returns two ops, after one warm-up call of each has sized the buffers:
// cohortOp scores a GA-sized cohort of 24 in-box vectors (the lanes), oneOp
// scores one vector through single (the scalar loop).
func riverOps(tb testing.TB) (cohort int, cohortOp, oneOp func()) {
	tb.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		tb.Fatal(err)
	}
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	obj, err := RiverObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := Box(bio.DefaultConstants())
	rng := rand.New(rand.NewSource(17))
	params := make([][]float64, 24)
	for i := range params {
		params[i] = uniformBox(rng, lo, hi)
	}
	scores := obj(params, make([]float64, 0, len(params)))
	score := single(obj)
	score(params[0])
	return len(params), func() { scores = obj(params, scores[:0]) }, func() { score(params[0]) }
}

// BenchmarkRiverObjective measures what one candidate costs the batched
// Table V calibration layer: a GA cohort scored per op, reported per
// vector as well.
func BenchmarkRiverObjective(b *testing.B) {
	cohort, op, _ := riverOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cohort), "ns/vector")
}

// TestRiverObjectiveZeroAllocs: once its buffers are sized, scoring a
// cohort must not allocate, and neither must scoring one vector through
// single.
func TestRiverObjectiveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	_, cohortOp, oneOp := riverOps(t)
	if allocs := testing.AllocsPerRun(20, cohortOp); allocs != 0 {
		t.Fatalf("RiverObjective allocates %.1f objects per cohort; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, oneOp); allocs != 0 {
		t.Fatalf("RiverObjective allocates %.1f objects per single vector; want 0", allocs)
	}
}
