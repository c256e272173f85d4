package evalx

import (
	"fmt"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/gp"
	"gmr/internal/grammar"
)

// Benchmarks for the evaluator hot path, and the allocation ceilings that
// make their allocs/op part of `go test`. Three regimes of the two-tier
// cache matter:
//
//   - Cold: the full derive → simplify → bind → compile pipeline plus the
//     simulation, i.e. what a tier-1 miss pays.
//   - Tier-1 hit: same structure, different parameters — skips
//     derive/simplify/bind/compile and only re-simulates.
//   - Tier-2 hit: same structure and parameters — skips everything.
//
// Each workload is built once by an *Op function and driven both by its
// benchmark (`make bench` reports ns/op and allocs/op) and by its
// allocation test below. The allocs/op ceilings are deterministic, so they
// are tests; ns/op is for reading only, and speed is judged end to end by
// bench/. popPassOp has no benchmark here: the root package's
// BenchmarkEvaluatePop{Clustered,Scalar} time the same fixture on a
// two-year window.

var (
	benchForcing [][]float64
	benchObs     []float64
)

// benchWindow is smallData's one-year training window, generated once.
func benchWindow(tb testing.TB) ([][]float64, []float64) {
	if benchForcing == nil {
		benchForcing, benchObs, _ = smallData(tb)
	}
	return benchForcing, benchObs
}

func benchIndividuals(tb testing.TB, n int, seed int64) []*gp.Individual {
	tb.Helper()
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	means := bio.Means(bio.DefaultConstants())
	inds := make([]*gp.Individual, n)
	for i := range inds {
		d, err := g.RandomDeriv(rng, 4, 18)
		if err != nil {
			tb.Fatal(err)
		}
		inds[i] = gp.NewIndividual(d, means)
	}
	return inds
}

// benchEvaluator opens a batch on a fresh evaluator over benchWindow; the
// batch closes when the benchmark or test ends.
func benchEvaluator(tb testing.TB, useCache bool) *Evaluator {
	tb.Helper()
	forcing, obs := benchWindow(tb)
	opts := Options{UseCache: useCache, UseCompile: true, Simplify: true, Sim: simCfg(obs)}
	ev := New(forcing, obs, bio.DefaultConstants(), opts)
	ev.BeginBatch()
	tb.Cleanup(ev.EndBatch)
	return ev
}

// runBench times op b.N times with allocation reporting; op(i) may use i
// to present fresh input.
func runBench(b *testing.B, op func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
}

// allocsPerOp averages op's allocations over runs calls after one warm-up
// call (testing.AllocsPerRun, which truncates to a whole count). It skips
// the test under the race detector, whose instrumentation allocates.
func allocsPerOp(t *testing.T, runs int, op func(i int)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		op(i)
		i++
	})
}

// coldOp re-derives, re-simplifies, re-binds, re-compiles and re-simulates
// one of 64 individuals per op: the cache is off.
func coldOp(tb testing.TB) func(int) {
	inds := benchIndividuals(tb, 64, 11)
	ev := benchEvaluator(tb, false)
	return func(i int) {
		ind := inds[i%len(inds)]
		ind.Invalidate()
		ev.Evaluate(ind)
	}
}

// tier1Op evaluates one warm structure under a fresh parameter vector per
// op: the structure tier hits, the fitness tier misses, so each op pays one
// simulation plus the key build and cache bookkeeping.
func tier1Op(tb testing.TB) (*Evaluator, func(int)) {
	warm := benchIndividuals(tb, 1, 13)[0]
	ev := benchEvaluator(tb, true)
	ev.Evaluate(warm)
	return ev, func(i int) {
		warm.Params[0] = 0.1 + float64(i)*1e-9 // unique params: tier-2 miss
		warm.Invalidate()                      // param-only: structure key survives
		ev.Evaluate(warm)
	}
}

// tier2Op re-evaluates one identical (structure, params) pair: after the
// warm-up every op is a pure fitness-cache hit.
func tier2Op(tb testing.TB) (*Evaluator, func(int)) {
	warm := benchIndividuals(tb, 1, 12)[0]
	ev := benchEvaluator(tb, true)
	ev.Evaluate(warm)
	return ev, func(int) {
		warm.Invalidate()
		ev.Evaluate(warm)
	}
}

// popPassOp runs one generation-shaped population pass per op through a
// two-worker gp.Engine: 8 structures × 8 clones, every member under a fresh
// parameter vector, so each member misses tier 2 and simulates in full
// (short-circuiting is off). noCluster selects the per-individual scalar
// path through the same scheduler.
func popPassOp(tb testing.TB, noCluster bool) (members int, op func(int)) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		tb.Fatal(err)
	}
	var pop []*gp.Individual
	bases := benchIndividuals(tb, 8, 29)
	for c := 0; c < 8; c++ {
		for _, base := range bases {
			pop = append(pop, base.Clone())
		}
	}
	forcing, obs := benchWindow(tb)
	opts := AllSpeedups(simCfg(obs))
	opts.UseShortCircuit = false
	ev := New(forcing, obs, bio.DefaultConstants(), opts)
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: len(pop), Seed: 3, Workers: 2, NoCluster: noCluster})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	eng.EvaluatePopulation(pop) // warm: derive, compile, exogenous plans
	base := make([]float64, len(pop))
	for j, ind := range pop {
		base[j] = ind.Params[0]
	}
	return len(pop), func(i int) {
		for j, ind := range pop {
			ind.Params[0] = base[j] * (1 + float64((i+1)*len(pop)+j)*1e-9)
			ind.Invalidate()
		}
		eng.EvaluatePopulation(pop)
	}
}

// BenchmarkEvaluate_Cold measures the uncached pipeline: every iteration
// re-derives, re-simplifies, re-binds, re-compiles, and re-simulates (the
// seed evaluator paid this on every call).
func BenchmarkEvaluate_Cold(b *testing.B) { runBench(b, coldOp(b)) }

// BenchmarkEvaluate_Tier1Hit measures tier1Op.
func BenchmarkEvaluate_Tier1Hit(b *testing.B) {
	ev, op := tier1Op(b)
	runBench(b, op)
	if st := ev.Stats(); st.Compiles != 1 || st.Derives != 1 {
		b.Fatalf("tier-1 hits must not re-derive or re-compile: derives=%d compiles=%d", st.Derives, st.Compiles)
	}
}

// BenchmarkEvaluate_Tier2Hit measures tier2Op.
func BenchmarkEvaluate_Tier2Hit(b *testing.B) {
	ev, op := tier2Op(b)
	runBench(b, op)
	if st := ev.Stats(); st.StepsEvaluated > 2*len(benchObs) {
		b.Fatalf("tier-2 hits must not re-simulate: steps=%d", st.StepsEvaluated)
	}
}

// BenchmarkEvaluateParamBatch measures the segmented batch path amortized
// per member: one structure, batches of λ parameter vectors, reused result
// buffer. λ = 8 is exactly one full-width lane launch per call; λ = 16 is
// two. Steady state this must be allocation-free — the contract
// TestBatchSteadyStateZeroAllocs enforces.
func BenchmarkEvaluateParamBatch(b *testing.B) {
	for _, lam := range []int{8, 16} {
		b.Run(fmt.Sprintf("lambda=%d", lam), func(b *testing.B) {
			base := benchIndividuals(b, 1, 13)[0]
			ev := benchEvaluator(b, true)
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
		})
	}
}

// BenchmarkEvaluate_Parallel exercises the sharded cache under concurrent
// load: many goroutines evaluating a mixed population, as evaluatePop
// does. Compare ns/op across -cpu values to see scaling.
func BenchmarkEvaluate_Parallel(b *testing.B) {
	inds := benchIndividuals(b, 128, 14)
	ev := benchEvaluator(b, true)
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

// TestColdEvaluateAllocCeiling: the uncached pipeline allocates no more
// per evaluation, averaged over coldOp's 64 individuals after one warm pass
// over them, than the 255 it did when this ceiling was set. Lower the
// ceiling when a change trims the pipeline.
func TestColdEvaluateAllocCeiling(t *testing.T) {
	const ceiling = 255
	op := coldOp(t)
	for i := 0; i < 64; i++ {
		op(i)
	}
	if got := allocsPerOp(t, 64, op); got > ceiling {
		t.Errorf("cold evaluation allocates %.0f objects/op, want ≤ %d", got, ceiling)
	}
}

// TestTier1HitAllocs: a tier-1 hit allocates at most once — the tier-2 key
// it stores for the fresh parameter vector.
func TestTier1HitAllocs(t *testing.T) {
	ev, op := tier1Op(t)
	if got := allocsPerOp(t, 256, op); got > 1 {
		t.Errorf("tier-1 hit allocates %.0f objects/op, want ≤ 1", got)
	}
	if st := ev.Stats(); st.Compiles != 1 || st.Derives != 1 {
		t.Errorf("tier-1 hits must not re-derive or re-compile: derives=%d compiles=%d", st.Derives, st.Compiles)
	}
}

// TestTier2HitZeroAllocs: a tier-2 hit is a pure cache lookup and must not
// allocate.
func TestTier2HitZeroAllocs(t *testing.T) {
	ev, op := tier2Op(t)
	before := ev.Stats().StepsEvaluated
	if got := allocsPerOp(t, 100, op); got != 0 {
		t.Errorf("tier-2 hit allocates %.0f objects/op, want 0", got)
	}
	if after := ev.Stats().StepsEvaluated; after != before {
		t.Errorf("tier-2 hits re-simulated: %d steps", after-before)
	}
}

// TestPopulationPassAllocs: a population pass in which every member
// simulates allocates at most one object per member (its tier-2 key) plus
// a small constant, clustered or not. The average runs over enough passes
// to amortize the growth of the tier-2 maps.
func TestPopulationPassAllocs(t *testing.T) {
	for _, noCluster := range []bool{false, true} {
		members, op := popPassOp(t, noCluster)
		if got := allocsPerOp(t, 200, op); got > float64(members+8) {
			t.Errorf("NoCluster=%v: simulating population pass allocates %.0f objects for %d members, want ≤ %d",
				noCluster, got, members, members+8)
		}
	}
}
