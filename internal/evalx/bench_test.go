package evalx

import (
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/gp"
	"gmr/internal/grammar"
)

// Benchmarks for the evaluator hot path. Three regimes matter
// (ISSUE 1 acceptance criteria):
//
//   - Cold: the full derive → simplify → bind → compile pipeline plus the
//     simulation, i.e. what every evaluation paid before the two-tier
//     cache (and what a tier-1 miss still pays).
//   - Tier-1 hit: same structure, different parameters — skips
//     derive/simplify/bind/compile and only re-simulates.
//   - Tier-2 hit: same structure and parameters — skips everything.
//
// Run with -benchmem; cmd/riverbench -exp bencheval snapshots these numbers
// into BENCH_EVAL.json.

var (
	benchForcing [][]float64
	benchObs     []float64
)

func benchWindow(b *testing.B) ([][]float64, []float64) {
	b.Helper()
	if benchForcing == nil {
		ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2001, TrainEndYear: 2000})
		if err != nil {
			b.Fatal(err)
		}
		benchForcing, benchObs = ds.TrainForcing(), ds.TrainObsPhy()
	}
	return benchForcing, benchObs
}

func benchIndividuals(b *testing.B, n int, seed int64) []*gp.Individual {
	b.Helper()
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	means := bio.Means(bio.DefaultConstants())
	inds := make([]*gp.Individual, n)
	for i := range inds {
		d, err := g.RandomDeriv(rng, 4, 18)
		if err != nil {
			b.Fatal(err)
		}
		inds[i] = gp.NewIndividual(d, means)
	}
	return inds
}

func benchEvaluator(b *testing.B, useCache bool) *Evaluator {
	b.Helper()
	forcing, obs := benchWindow(b)
	opts := Options{UseCache: useCache, UseCompile: true, Simplify: true,
		Sim: bio.SimConfig{SubSteps: 2, Phy0: obs[0], Zoo0: 1.5}}
	return New(forcing, obs, bio.DefaultConstants(), opts)
}

// BenchmarkEvaluate_Cold measures the uncached pipeline: every iteration
// re-derives, re-simplifies, re-binds, re-compiles, and re-simulates (the
// seed evaluator paid this on every call).
func BenchmarkEvaluate_Cold(b *testing.B) {
	inds := benchIndividuals(b, 64, 11)
	ev := benchEvaluator(b, false)
	ev.BeginBatch()
	defer ev.EndBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ind := inds[i%len(inds)]
		ind.Invalidate()
		ev.Evaluate(ind)
	}
}

// BenchmarkEvaluate_Tier1Hit evaluates one structure under ever-changing
// parameters: the structure tier hits (no derive/simplify/bind/compile),
// the fitness tier misses (params are unique), so each op pays exactly one
// simulation plus the key build and cache bookkeeping.
func BenchmarkEvaluate_Tier1Hit(b *testing.B) {
	inds := benchIndividuals(b, 1, 13)
	ev := benchEvaluator(b, true)
	ev.BeginBatch()
	defer ev.EndBatch()
	warm := inds[0]
	ev.Evaluate(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm.Params[0] = 0.1 + float64(i)*1e-9 // unique params: tier-2 miss
		warm.Invalidate()                      // param-only: structure key survives
		ev.Evaluate(warm)
	}
	b.StopTimer()
	st := ev.Stats()
	if st.Compiles != 1 || st.Derives != 1 {
		b.Fatalf("tier-1 hits must not re-derive or re-compile: derives=%d compiles=%d", st.Derives, st.Compiles)
	}
}

// BenchmarkEvaluateParamBatch measures the segmented batch path amortized
// per member: one structure, batches of 16 parameter vectors, reused
// result buffer. Steady state this must be allocation-free — the same
// contract TestBatchSteadyStateZeroAllocs enforces exactly.
func BenchmarkEvaluateParamBatch(b *testing.B) {
	inds := benchIndividuals(b, 1, 13)
	ev := benchEvaluator(b, true)
	ev.BeginBatch()
	defer ev.EndBatch()
	base := inds[0]
	const lam = 16
	paramSets := make([][]float64, lam)
	for i := range paramSets {
		paramSets[i] = append([]float64(nil), base.Params...)
	}
	out := make([]gp.BatchResult, 0, lam)
	ev.EvaluateParamBatch(base, paramSets, out) // warm: derive, compile, plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += lam {
		for j := range paramSets {
			paramSets[j][0] = 0.1 + float64(i+j)*1e-9
		}
		ev.EvaluateParamBatch(base, paramSets, out[:0])
	}
	b.StopTimer()
	st := ev.Stats()
	if st.Compiles != 1 || st.Derives != 1 {
		b.Fatalf("batch path must not re-derive or re-compile: derives=%d compiles=%d", st.Derives, st.Compiles)
	}
	if st.ExogPlanBuilds != 1 {
		b.Fatalf("batch path must reuse one exogenous plan, built %d", st.ExogPlanBuilds)
	}
}

// BenchmarkEvaluate_Tier2Hit re-evaluates one identical (structure, params)
// pair: after warm-up every op is a pure fitness-cache hit.
func BenchmarkEvaluate_Tier2Hit(b *testing.B) {
	inds := benchIndividuals(b, 1, 12)
	ev := benchEvaluator(b, true)
	ev.BeginBatch()
	defer ev.EndBatch()
	warm := inds[0]
	ev.Evaluate(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm.Invalidate()
		ev.Evaluate(warm)
	}
	b.StopTimer()
	if st := ev.Stats(); st.StepsEvaluated > 2*len(benchObs) {
		b.Fatalf("tier-2 hits must not re-simulate: steps=%d", st.StepsEvaluated)
	}
}

// BenchmarkEvaluate_Parallel exercises the sharded cache under concurrent
// load: many goroutines evaluating a mixed population, as evaluatePop
// does. Compare ns/op across -cpu values to see scaling.
func BenchmarkEvaluate_Parallel(b *testing.B) {
	inds := benchIndividuals(b, 128, 14)
	ev := benchEvaluator(b, true)
	ev.BeginBatch()
	defer ev.EndBatch()
	for _, ind := range inds {
		ev.Evaluate(ind) // warm tier 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(99))
		i := 0
		for pb.Next() {
			c := inds[i%len(inds)].Clone()
			c.Invalidate()
			c.Params[rng.Intn(len(c.Params))] *= 1 + rng.Float64()*1e-6
			ev.Evaluate(c)
			i++
		}
	})
}
