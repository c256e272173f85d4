package calib

import (
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
)

// cohortOp builds RiverBatchObjective over a two-year training window and
// returns one op that scores a GA-sized cohort of 24 in-box vectors through
// the lane kernel, after one warm-up call has sized its buffers.
func cohortOp(tb testing.TB) (cohort int, op func()) {
	tb.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		tb.Fatal(err)
	}
	sim := bio.SimConfig{SubSteps: 2, Phy0: ds.ObsPhy[0], Zoo0: ds.ObsZoo[0]}
	batch, err := RiverBatchObjective(ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := Box(bio.DefaultConstants())
	rng := rand.New(rand.NewSource(17))
	params := make([][]float64, 24)
	for i := range params {
		params[i] = uniformBox(rng, lo, hi)
	}
	scores := batch(params, make([]float64, 0, len(params)))
	return len(params), func() { scores = batch(params, scores[:0]) }
}

// BenchmarkRiverBatchObjective measures what one candidate costs the
// batched Table V calibration layer: a GA cohort scored per op, reported
// per vector as well.
func BenchmarkRiverBatchObjective(b *testing.B) {
	cohort, op := cohortOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cohort), "ns/vector")
}

// TestRiverBatchObjectiveZeroAllocs: once its buffers are sized, scoring a
// cohort must not allocate.
func TestRiverBatchObjectiveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	_, op := cohortOp(t)
	if allocs := testing.AllocsPerRun(20, op); allocs != 0 {
		t.Fatalf("RiverBatchObjective allocates %.1f objects per cohort; want 0", allocs)
	}
}
