package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	obspkg "gmr/internal/obs"
)

// benchEvalResult is one benchmark row of the BENCH_EVAL.json snapshot.
type benchEvalResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchEvalEntry groups one full benchmark run at a fixed GOMAXPROCS. The
// snapshot records one entry per parallelism setting so regressions that
// only show up under contention (or only single-threaded) are both caught.
type benchEvalEntry struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks []benchEvalResult `json:"benchmarks"`
	// Cache summarizes the two-tier cache behavior under a mixed GP-like
	// workload (many structures, jittered parameters) — the evaluator's
	// own counter snapshot, shared with the orchestrator telemetry.
	Cache evalx.Stats `json:"cache"`
}

type benchEvalSnapshot struct {
	GoVersion string           `json:"go_version"`
	Entries   []benchEvalEntry `json:"entries,omitempty"`
}

// benchRegressionLimit is the ns/op slack allowed against the baseline
// before runBenchEval reports a regression. Allocations get no slack: any
// allocs/op increase is a failure (the steady-state paths are designed to
// be allocation-free, so an extra allocation is a bug, not noise).
const benchRegressionLimit = 1.15

// runBenchEval measures the evaluator hot path in the regimes of the
// two-tier cache (cold, tier-1 hit, tier-2 hit), the segmented parameter
// batch path, and the simulation inner loops, once per GOMAXPROCS setting
// (1 and all CPUs), and snapshots ns/op, bytes/op, allocs/op, and cache
// hit rates into outPath as JSON. The same numbers back the README
// performance table.
//
// When baselinePath is non-empty, the fresh numbers are compared against
// the baseline snapshot and an error is returned if any benchmark regresses
// by more than benchRegressionLimit in ns/op or allocates more per op —
// that error is `make bench-diff` failing.
func runBenchEval(ds *dataset.Dataset, outPath, baselinePath string) error {
	// One pass pinned to a single P, one at full parallelism (at least 2 so
	// the snapshot always carries both entries — on a single-CPU machine
	// the second entry measures scheduler/GC interference only).
	procs := []int{1, runtime.NumCPU()}
	if procs[1] < 2 {
		procs[1] = 2
	}

	var snap benchEvalSnapshot
	snap.GoVersion = runtime.Version()
	prev := runtime.GOMAXPROCS(0)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fmt.Printf("benchmarking evaluator hot path (GOMAXPROCS=%d)...\n", p)
		snap.Entries = append(snap.Entries, benchEvalEntry{
			GOMAXPROCS: p,
			Benchmarks: benchEvalPass(ds),
		})
		ent := &snap.Entries[len(snap.Entries)-1]
		ent.Cache = benchEvalCachePass(ds)
		fmt.Printf("  mixed workload: %d evals, tier-1 hit rate %.2f, tier-2 hit rate %.2f, %d compiles, %d exog plans, %d short circuits\n",
			ent.Cache.Evaluations, ent.Cache.Tier1HitRate, ent.Cache.Tier2HitRate, ent.Cache.Compiles, ent.Cache.ExogPlanBuilds, ent.Cache.ShortCircuits)
	}
	runtime.GOMAXPROCS(prev)

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", outPath)

	if baselinePath != "" {
		return compareBenchBaseline(&snap, baselinePath)
	}
	return nil
}

// benchEvalPass runs the benchmark set once at the current GOMAXPROCS.
func benchEvalPass(ds *dataset.Dataset) []benchEvalResult {
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	consts := bio.DefaultConstants()
	simCfg := bio.SimConfig{SubSteps: 2, Phy0: obs[0], Zoo0: 1.5}

	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		panic(err) // static grammar: failure is a programming error
	}
	means := bio.Means(consts)
	newInds := func(n int, seed int64) []*gp.Individual {
		rng := rand.New(rand.NewSource(seed))
		inds := make([]*gp.Individual, n)
		for i := range inds {
			d, err := g.RandomDeriv(rng, 4, 18)
			if err != nil {
				// RandomDeriv failure is a programming error at these bounds.
				panic(err)
			}
			inds[i] = gp.NewIndividual(d, means)
		}
		return inds
	}
	newEval := func(useCache bool) *evalx.Evaluator {
		return evalx.New(forcing, obs, consts, evalx.Options{
			UseCache: useCache, UseCompile: true, Simplify: true, Sim: simCfg,
		})
	}

	var results []benchEvalResult
	record := func(name string, r testing.BenchmarkResult) {
		results = append(results, benchEvalResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("  %-22s %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	// Cold: full derive → simplify → bind → compile → simulate pipeline.
	record("evaluate_cold", testing.Benchmark(func(b *testing.B) {
		inds := newInds(64, 11)
		ev := newEval(false)
		ev.BeginBatch()
		defer ev.EndBatch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ind := inds[i%len(inds)]
			ind.Invalidate()
			ev.Evaluate(ind)
		}
	}))

	// Tier-1 hit: known structure, fresh parameters — prologue + step
	// kernel over the hoisted exogenous plan.
	record("evaluate_tier1_hit", testing.Benchmark(func(b *testing.B) {
		inds := newInds(1, 13)
		ev := newEval(true)
		ev.BeginBatch()
		defer ev.EndBatch()
		warm := inds[0]
		ev.Evaluate(warm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm.Params[0] = 0.1 + float64(i)*1e-9
			warm.Invalidate()
			ev.Evaluate(warm)
		}
	}))

	// Parameter batch: EvaluateParamBatch over one structure, amortized per
	// member (b.N counts members, one batch call per 16). This is what a
	// batched (1+λ) refinement proposal costs.
	record("evaluate_param_batch", testing.Benchmark(func(b *testing.B) {
		inds := newInds(1, 13)
		ev := newEval(true)
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
	}))

	// Lane-width batch: same path as evaluate_param_batch but with exactly
	// expr.Lanes members per call, so every call is one full-width dispatch
	// through the lane kernel — the per-candidate floor of the SoA path.
	record("evaluate_param_batch_lanes", testing.Benchmark(func(b *testing.B) {
		inds := newInds(1, 13)
		ev := newEval(true)
		ev.BeginBatch()
		defer ev.EndBatch()
		base := inds[0]
		lam := expr.Lanes
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
	}))

	// Calibration population: RiverBatchObjective scoring a GA-sized cohort
	// (24 vectors) through the lane kernel, amortized per vector — what one
	// candidate costs the batched Table V calibration layer.
	record("calib_batch_population", testing.Benchmark(func(b *testing.B) {
		batchObj, err := calib.RiverBatchObjective(forcing, obs, simCfg)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := calib.Box(consts)
		rng := rand.New(rand.NewSource(17))
		const pop = 24
		paramSets := make([][]float64, pop)
		for i := range paramSets {
			paramSets[i] = make([]float64, len(lo))
			for j := range paramSets[i] {
				paramSets[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		scores := make([]float64, 0, pop)
		scores = batchObj(paramSets, scores[:0]) // warm buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += pop {
			scores = batchObj(paramSets, scores[:0])
		}
	}))

	// Population evaluation: the structure-clustered generation scheduler
	// versus the per-individual scalar path (the -nocluster ablation) over
	// a duplicate-heavy population — 8 structures × 8 clones with unique
	// parameter vectors, the generation shape left by param-only variation
	// (DESIGN.md §14). Amortized per individual.
	popBench := func(noCluster bool) func(b *testing.B) {
		return func(b *testing.B) {
			bases := newInds(8, 29)
			pop := make([]*gp.Individual, 0, 64)
			for c := 0; c < 8; c++ {
				for _, base := range bases {
					pop = append(pop, base.Clone())
				}
			}
			ev := newEval(true)
			eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: len(pop), Seed: 7, NoCluster: noCluster})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.EvaluatePopulation(pop) // warm: derive, compile, exogenous plans
			basep := make([]float64, len(pop))
			for j, ind := range pop {
				basep[j] = ind.Params[0]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(pop) {
				for j, ind := range pop {
					ind.Params[0] = basep[j] * (1 + float64(i+j)*1e-9)
					ind.Invalidate()
				}
				eng.EvaluatePopulation(pop)
			}
		}
	}
	record("evaluate_pop_clustered", testing.Benchmark(popBench(false)))
	record("evaluate_pop_scalar", testing.Benchmark(popBench(true)))

	// Tier-2 hit: identical (structure, params) — pure cache lookup.
	record("evaluate_tier2_hit", testing.Benchmark(func(b *testing.B) {
		inds := newInds(1, 12)
		ev := newEval(true)
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
	}))

	// Simulation inner loop: the segmented register VM consuming a filled
	// exogenous plan (the warm-up run fills it; what a tier-1 hit pays
	// after hoisting).
	record("bio_seg_kernel", testing.Benchmark(func(b *testing.B) {
		phy, zoo, bconsts, err := bio.ManualSystem()
		if err != nil {
			b.Fatal(err)
		}
		seg, err := bio.NewSegSystem(phy, zoo)
		if err != nil {
			b.Fatal(err)
		}
		params := bio.Means(bconsts)
		plan := seg.NewExogPlan(forcing)
		var sc bio.SimScratch
		seg.Prologue(params, &sc)
		seg.Kernel(plan, simCfg, &sc, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg.Prologue(params, &sc)
			seg.Kernel(plan, simCfg, &sc, nil)
		}
	}))

	// Observability overhead guards: the instrumentation added to the hot
	// paths above must stay at 0 allocs/op — the bench-diff comparator
	// treats any allocs/op increase as a hard failure, so these rows pin
	// the registry counter, the histogram, and both tracer states.
	record("obs_counter_inc", testing.Benchmark(func(b *testing.B) {
		c := obspkg.NewRegistry().Counter("bench_total", "", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	}))
	record("obs_histogram_observe", testing.Benchmark(func(b *testing.B) {
		h := obspkg.NewRegistry().Histogram("bench_seconds", "", nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%7) * 0.001)
		}
	}))
	record("obs_tracer_disabled", testing.Benchmark(func(b *testing.B) {
		var tr *obspkg.Tracer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Start("bench.span").End()
		}
	}))
	record("obs_tracer_enabled", testing.Benchmark(func(b *testing.B) {
		tr := obspkg.NewTracer(obspkg.TracerConfig{Ring: 256})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Start("bench.span").End()
		}
	}))

	return results
}

// benchEvalCachePass runs the mixed GP-like workload for cache hit rates: a
// population of structures re-evaluated across rounds, parameters jittered
// in half of the evaluations (tier-2 misses that stay tier-1 hits).
// Short-circuiting is on and each round is its own batch — the reference
// fitness commits at every EndBatch, exactly like a generation barrier, so
// the snapshot exercises (and the README reports) live short-circuit
// counts instead of a dormant zero.
func benchEvalCachePass(ds *dataset.Dataset) evalx.Stats {
	forcing, obs := ds.TrainForcing(), ds.TrainObsPhy()
	consts := bio.DefaultConstants()
	simCfg := bio.SimConfig{SubSteps: 2, Phy0: obs[0], Zoo0: 1.5}
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		panic(err)
	}
	means := bio.Means(consts)
	rng := rand.New(rand.NewSource(21))
	inds := make([]*gp.Individual, 96)
	for i := range inds {
		d, err := g.RandomDeriv(rng, 4, 18)
		if err != nil {
			panic(err)
		}
		inds[i] = gp.NewIndividual(d, means)
	}
	ev := evalx.New(forcing, obs, consts, evalx.Options{
		UseCache: true, UseShortCircuit: true, UseCompile: true, Simplify: true, Sim: simCfg,
	})
	jrng := rand.New(rand.NewSource(5))
	for round := 0; round < 4; round++ {
		ev.BeginBatch()
		for _, ind := range inds {
			c := ind.Clone()
			if round > 0 && jrng.Float64() < 0.5 {
				c.Params[jrng.Intn(len(c.Params))] *= 1 + jrng.Float64()*1e-6
			}
			c.Invalidate()
			ev.Evaluate(c)
		}
		ev.EndBatch()
	}
	// A refinement-style parameter sweep over the round-winners drives the
	// lane-batched kernel, so the snapshot's lane utilization counters
	// (lane_batches, lanes_filled, lane_short_circuits) are live too.
	ev.BeginBatch()
	for _, ind := range inds[:8] {
		paramSets := make([][]float64, expr.Lanes)
		for i := range paramSets {
			paramSets[i] = append([]float64(nil), ind.Params...)
			paramSets[i][jrng.Intn(len(ind.Params))] *= 1 + jrng.Float64()*1e-3
		}
		out := make([]gp.BatchResult, 0, expr.Lanes)
		ev.EvaluateParamBatch(ind, paramSets, out)
	}
	ev.EndBatch()
	return ev.Stats()
}

// compareBenchBaseline diffs a fresh snapshot against the committed
// baseline and returns an error describing every benchmark that regressed
// (>15% ns/op, or any allocs/op increase). Entries are matched by
// GOMAXPROCS; benchmarks by name. Benchmarks present on only one side are
// reported informationally but do not fail the comparison, so the baseline
// can be extended incrementally.
func compareBenchBaseline(cur *benchEvalSnapshot, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchEvalSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if len(base.Entries) == 0 {
		return fmt.Errorf("baseline %s: no benchmark entries", baselinePath)
	}

	byProcs := make(map[int]map[string]benchEvalResult, len(base.Entries))
	for _, e := range base.Entries {
		m := make(map[string]benchEvalResult, len(e.Benchmarks))
		for _, b := range e.Benchmarks {
			m[b.Name] = b
		}
		byProcs[e.GOMAXPROCS] = m
	}

	var regressions []string
	compared := 0
	fmt.Printf("comparing against baseline %s (%s)\n", baselinePath, base.GoVersion)
	for _, e := range cur.Entries {
		bm, ok := byProcs[e.GOMAXPROCS]
		if !ok {
			fmt.Printf("  GOMAXPROCS=%d: no baseline entry, skipping\n", e.GOMAXPROCS)
			continue
		}
		for _, c := range e.Benchmarks {
			b, ok := bm[c.Name]
			if !ok {
				fmt.Printf("  GOMAXPROCS=%d %s: new benchmark (no baseline)\n", e.GOMAXPROCS, c.Name)
				continue
			}
			compared++
			ratio := c.NsPerOp / b.NsPerOp
			status := "ok"
			if ratio > benchRegressionLimit {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"GOMAXPROCS=%d %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx limit)",
					e.GOMAXPROCS, c.Name, c.NsPerOp, b.NsPerOp, ratio, benchRegressionLimit))
			}
			if c.AllocsPerOp > b.AllocsPerOp {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"GOMAXPROCS=%d %s: %d allocs/op vs baseline %d (no allocation increase allowed)",
					e.GOMAXPROCS, c.Name, c.AllocsPerOp, b.AllocsPerOp))
			}
			fmt.Printf("  GOMAXPROCS=%d %-22s %6.2fx ns/op, %+d allocs/op  %s\n",
				e.GOMAXPROCS, c.Name, ratio, c.AllocsPerOp-b.AllocsPerOp, status)
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s: no comparable benchmarks (GOMAXPROCS mismatch?)", baselinePath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "bench regression: %s\n", r)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(regressions), baselinePath)
	}
	fmt.Printf("baseline check passed: %d benchmarks within limits\n\n", compared)
	return nil
}
