package gmr

// Golden behaviour digests. Every other determinism test compares two
// results computed inside the same test, so a change that shifts both
// sides the same way (a reordered RNG draw, a different float operation
// order in a simulator) passes silently. These tests pin fixed-seed
// outputs to committed digests under testdata/golden instead:
//
//	dataset.golden  float bits of experiments.DefaultDataset(7)
//	calib.golden    one small-budget calibration per calibrator
//	islands.golden  a tiny 2-island core.RunIslands run per generation budget,
//	                reproduced with 8 workers
//	islands_faults.golden
//	                the same runs under injected panics and NaN poison
//	analysis.golden finalize's ranking and best-model metrics of one island
//	                run, and its Fig 9 selectivity and parameter
//	                sensitivity rows
//	plain.golden    a gp.Engine run over an evaluator with no batch facets
//	                (the scheduler's key-less singletons and λ = 1 elite
//	                refinement), clean and under injected faults, at 1 and
//	                8 workers
//	fitness.golden  a fixed population's fitness under three evaluator modes
//	evalx.golden    param-batch and population-path fitness plus the
//	                evaluator's JSON counter record, per evaluator mode
//	counters.golden the evaluator's counter record after each generation
//	                of a clean, single-worker gp.Engine run
//	serve.golden    exact /v1 and /v2 forecast response bodies: point,
//	                concurrent co-batched point, and a posterior ensemble
//	                with one divergent member; reproduced with MaxBatch 1
//
// Each file holds one "<item> <value>" line per item; a failure names the
// first item that diverges. After an intended behaviour change, regenerate
// the files with
//
//	go test -run TestGolden -update .

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/experiments"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/serve"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

var (
	goldenOnce sync.Once
	goldenDS   *dataset.Dataset
	goldenErr  error
)

// goldenDataset generates the standard dataset once for all golden tests.
func goldenDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	goldenOnce.Do(func() { goldenDS, goldenErr = experiments.DefaultDataset(7) })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenDS
}

// goldenLines accumulates the "<item> <value>" lines of one digest file.
type goldenLines []string

func (g *goldenLines) add(item, format string, args ...any) {
	*g = append(*g, item+" "+fmt.Sprintf(format, args...))
}

// floatsDigest hashes the exact bits of the values, in order.
func floatsDigest(xs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkGolden compares lines against testdata/golden/<name>, or rewrites
// the file under -update. Golden items whose name ends in one of the omit
// suffixes are expected to be absent from lines (a variant that cannot
// reproduce them).
func checkGolden(t *testing.T, name string, lines goldenLines, omit ...string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestGolden -update .)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
scan:
	for sc.Scan() {
		item, _, _ := strings.Cut(sc.Text(), " ")
		for _, suffix := range omit {
			if strings.HasSuffix(item, suffix) {
				continue scan
			}
		}
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(lines) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Fatalf("%s: extra item %q not in the golden file", name, lines[i])
		case i >= len(lines):
			t.Fatalf("%s: golden item %q was not produced", name, want[i])
		case lines[i] != want[i]:
			t.Fatalf("%s: first divergence at line %d\n got: %s\nwant: %s", name, i+1, lines[i], want[i])
		}
	}
}

// goldenBlock is the number of days per dataset digest item, so a
// divergence is located to within a year.
const goldenBlock = 365

func TestGoldenDataset(t *testing.T) {
	ds := goldenDataset(t)
	var g goldenLines
	g.add("days", "%d", ds.Days)
	g.add("train_end", "%d", ds.TrainEnd)
	for lo := 0; lo < ds.Days; lo += goldenBlock {
		hi := min(lo+goldenBlock, ds.Days)
		span := fmt.Sprintf("[%d:%d]", lo, hi)
		g.add("forcing"+span, "%s", floatsDigest(ds.Forcing[lo:hi]...))
		g.add("obs_phy"+span, "%s", floatsDigest(ds.ObsPhy[lo:hi]))
		g.add("obs_zoo"+span, "%s", floatsDigest(ds.ObsZoo[lo:hi]))
		g.add("true_phy"+span, "%s", floatsDigest(ds.TruePhy[lo:hi]))
		g.add("true_zoo"+span, "%s", floatsDigest(ds.TrueZoo[lo:hi]))
	}
	checkGolden(t, "dataset.golden", g)
}

// goldenSim is the model simulation regime of the golden runs: the small
// experiment scale's substeps, starting from the observed biomasses.
func goldenSim(ds *dataset.Dataset) bio.SimConfig {
	return dataset.ModelSimConfig(experiments.Small.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
}

// oneAtATime feeds obj one vector per call (the scalar loop), whatever
// cohort the calibrator passes.
func oneAtATime(obj calib.Objective) calib.Objective {
	return func(params [][]float64, out []float64) []float64 {
		for i := range params {
			out = obj(params[i:i+1], out)
		}
		return out
	}
}

// TestGoldenCalibration runs every calibrator once on the river objective
// over the first two years at a small budget, fed one vector per call (the
// /scalar rows). The population calibrators run again fed whole cohorts
// (the lanes, the /batch rows), so both kernels are pinned.
func TestGoldenCalibration(t *testing.T) {
	ds := goldenDataset(t)
	const budget, days = 60, 730
	sim := goldenSim(ds)
	forcing, obs := ds.Forcing[:days], ds.ObsPhy[:days]
	obj, err := calib.RiverObjective(forcing, obs, sim)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := calib.Box(bio.DefaultConstants())
	cohorts := map[string]bool{"GA": true, "DREAM": true, "SCE-UA": true}
	var g goldenLines
	for i, c := range calib.All() {
		x, f := c.Calibrate(oneAtATime(obj), lo, hi, budget, stats.NewRand(int64(100+i)))
		g.add(c.Name()+"/scalar", "f=%016x x=%s", math.Float64bits(f), floatsDigest(x))
		if cohorts[c.Name()] {
			x, f := c.Calibrate(obj, lo, hi, budget, stats.NewRand(int64(100+i)))
			g.add(c.Name()+"/batch", "f=%016x x=%s", math.Float64bits(f), floatsDigest(x))
		}
	}
	// Eleven vectors span two lane launches, the second ragged; vector 4
	// diverges and is compacted out of the first launch mid-flight.
	rng := stats.NewRand(5)
	vecs := make([][]float64, 11)
	for i := range vecs {
		vecs[i] = make([]float64, len(lo))
		for j := range vecs[i] {
			vecs[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			if i == 4 {
				vecs[i][j] = 1e300
			}
		}
	}
	var scores []string
	for _, f := range obj(vecs, nil) {
		scores = append(scores, fmt.Sprintf("%016x", math.Float64bits(f)))
	}
	// The row keeps the name it was recorded under, so calib.golden stays
	// byte-identical.
	g.add("RiverBatchObjective/11", "%s", strings.Join(scores, ","))
	checkGolden(t, "calib.golden", g)
}

// goldenVariant is one configuration of a golden test that claims bitwise
// parity with the default: every variant must reproduce the same committed
// file. Under -update only the default variant rewrites it.
type goldenVariant[C any] struct {
	name string
	mod  func(*C)
}

// runGoldenVariants runs check once per variant; check compares the
// variant's results against the shared golden files.
func runGoldenVariants[C any](t *testing.T, variants []goldenVariant[C], check func(*testing.T, func(*C))) {
	for i, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if *updateGolden && i > 0 {
				t.Skip("-update regenerates from the default variant")
			}
			check(t, v.mod)
		})
	}
}

// TestGoldenIslands runs a tiny two-island revision once per generation
// budget, so the first diverging item names the generation. Each item
// carries every island's per-generation best fitness bits, the GP
// champion's canonical model and parameter bits, and the reported
// champion's test RMSE bits
// (pre-calibration and finalize's forecasts included). islands.golden holds
// the clean runs; islands_faults.golden the same runs with one injector
// (panics and NaN poison) given to the evaluators and the orchestrator.
// Eight evaluation workers must reproduce the default (one worker) bytes.
func TestGoldenIslands(t *testing.T) {
	ds := goldenDataset(t)
	variants := []goldenVariant[gp.Config]{
		{"default", func(*gp.Config) {}},
		{"workers8", func(c *gp.Config) { c.Workers = 8 }},
	}
	runGoldenVariants(t, variants, func(t *testing.T, mod func(*gp.Config)) {
		checkGolden(t, "islands.golden", goldenIslandLines(t, ds, "", mod))
		checkGolden(t, "islands_faults.golden", goldenIslandLines(t, ds, "seed=42,panic:0.05,nan:0.05", mod))
	})
}

// goldenIslandLines runs the island revisions of TestGoldenIslands under
// the fault spec ("" for none) and renders their digest items.
func goldenIslandLines(t *testing.T, ds *dataset.Dataset, faults string, mod func(*gp.Config)) goldenLines {
	var g goldenLines
	var panics, nans int64
	for gens := 1; gens <= 3; gens++ {
		inj, err := faultinject.Parse(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			GP: gp.Config{
				PopSize: 10, MaxGen: gens, LocalSearchSteps: 1,
				Seed: 11, Workers: 1,
			},
			Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(experiments.Small.SubSteps, 0, 0)),
			TopK:               5,
			PreCalibrateBudget: 40,
		}
		cfg.Eval.Faults = inj
		mod(&cfg.GP)
		res, orch, err := core.RunIslands(context.Background(), ds, cfg, core.IslandOptions{Islands: 2, MigrationEvery: 1, Migrants: 1, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		panics += inj.Count(faultinject.Panic)
		nans += inj.Count(faultinject.NaN)
		var best []string
		for _, r := range orch.PerIsland {
			for _, h := range r.History {
				best = append(best, fmt.Sprintf("%016x", math.Float64bits(h.BestFitness)))
			}
		}
		phy, zoo, err := evalx.ModelExprs(orch.Best)
		if err != nil {
			t.Fatal(err)
		}
		g.add(fmt.Sprintf("gens=%d/best_fitness", gens), "%s", strings.Join(best, ","))
		g.add(fmt.Sprintf("gens=%d/champion", gens), "%s|%s params=%s", phy, zoo, floatsDigest(orch.Best.Params))
		g.add(fmt.Sprintf("gens=%d/reported", gens), "%s|%s", res.BestPhy, res.BestZoo)
		g.add(fmt.Sprintf("gens=%d/test_rmse", gens), "%016x", math.Float64bits(res.TestRMSE))
	}
	if faults != "" && (panics == 0 || nans == 0) {
		t.Fatalf("faults %q injected %d panics and %d NaN poisons; the runs must exercise both", faults, panics, nans)
	}
	return g
}

// goldenPlainEvaluator exposes only the gp.Evaluator methods of an
// evalx.Evaluator, hiding its batch facets from the engine.
type goldenPlainEvaluator struct{ gp.Evaluator }

// TestGoldenPlainEvaluator pins a gp.Engine run over an evaluator with no
// batch facets: the river grammar, an evalx evaluator narrowed to
// BeginBatch/Evaluate/EndBatch and the Table III priors, clean and under
// injected panics and NaN poison. Per fault mode it records every
// generation's best fitness bits and evaluation count, the champion's
// canonical model and parameter digest, and the engine's quarantine count;
// at one worker also the evaluator's counter record. Eight workers must
// reproduce every other item (their concurrent cache misses move the
// counters).
func TestGoldenPlainEvaluator(t *testing.T) {
	ds := goldenDataset(t)
	gram, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	priors := make([]gp.Prior, len(consts))
	for i, c := range consts {
		priors[i] = gp.Prior{Mean: c.Mean, Min: c.Min, Max: c.Max}
	}
	variants := []goldenVariant[gp.Config]{
		{"workers1", func(*gp.Config) {}},
		{"workers8", func(c *gp.Config) { c.Workers = 8 }},
	}
	runGoldenVariants(t, variants, func(t *testing.T, mod func(*gp.Config)) {
		cfg := gp.Config{PopSize: 10, MaxGen: 3, LocalSearchSteps: 1, Seed: 11, Workers: 1, Priors: priors}
		mod(&cfg)
		var g goldenLines
		var omit []string
		if cfg.Workers != 1 {
			omit = []string{"/stats"}
		}
		for _, spec := range []string{"", "seed=5,panic:0.05,nan:0.05"} {
			inj, err := faultinject.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := evalx.AllSpeedups(goldenSim(ds))
			opts.Faults = inj
			ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), consts, opts)
			eng, err := gp.NewEngine(gram, goldenPlainEvaluator{ev}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			mode := "clean"
			if spec != "" {
				mode = "faults"
			}
			for _, h := range res.History {
				g.add(fmt.Sprintf("%s/gen%d", mode, h.Gen), "best=%016x evals=%d", math.Float64bits(h.BestFitness), h.Evaluations)
			}
			phy, zoo, err := evalx.ModelExprs(res.Best)
			if err != nil {
				t.Fatal(err)
			}
			g.add(mode+"/champion", "%s|%s params=%s", phy, zoo, floatsDigest(res.Best.Params))
			g.add(mode+"/quarantines", "%d", eng.Quarantines())
			if omit == nil {
				g.add(mode+"/stats", "%s", goldenStatsJSON(t, ev))
			}
		}
		checkGolden(t, "plain.golden", g, omit...)
	})
}

// TestGoldenAnalysis pins what finalize and the Fig 9 analyses derive
// from the pooled models of the two-generation island run: the ranked
// top models (canonical model and test RMSE bits, in order), the best
// model's train and test metrics and test forecast, every variable
// selectivity row over the first 200 training days, and every parameter
// sensitivity row of the best model over the same window.
func TestGoldenAnalysis(t *testing.T) {
	ds := goldenDataset(t)
	cfg := core.Config{
		GP: gp.Config{
			PopSize: 10, MaxGen: 2, LocalSearchSteps: 1,
			Seed: 11, Workers: 1,
		},
		Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(experiments.Small.SubSteps, 0, 0)),
		TopK:               5,
		PreCalibrateBudget: 40,
	}
	res, _, err := core.RunIslands(context.Background(), ds, cfg, core.IslandOptions{Islands: 2, MigrationEvery: 1, Migrants: 1})
	if err != nil {
		t.Fatal(err)
	}
	var g goldenLines
	for i, ind := range res.TopModels {
		phy, zoo, err := evalx.ModelExprs(ind)
		if err != nil {
			t.Fatal(err)
		}
		g.add(fmt.Sprintf("top%d", i), "%016x %s|%s", math.Float64bits(res.TopTestRMSE[i]), phy, zoo)
	}
	g.add("best/train", "rmse=%016x mae=%016x", math.Float64bits(res.TrainRMSE), math.Float64bits(res.TrainMAE))
	g.add("best/test", "rmse=%016x mae=%016x pred=%s", math.Float64bits(res.TestRMSE), math.Float64bits(res.TestMAE), floatsDigest(res.TestPred))

	window, sim := ds.TrainForcing()[:200], goldenSim(ds)
	sel, err := core.AnalyzeSelectivity(res.TopModels, bio.DefaultConstants(), window, sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sel {
		g.add("selectivity/"+s.Variable, "%016x %s", math.Float64bits(s.Percent), s.Correlation)
	}
	sens, err := core.AnalyzeParamSensitivity(res.Best, bio.DefaultConstants(), window, sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sens {
		g.add("sensitivity/"+s.Name, "%016x", math.Float64bits(s.Relative))
	}
	checkGolden(t, "analysis.golden", g)
}

// goldenPopulation is the fixed population of TestGoldenFitness and
// TestGoldenEvalx: 16 random structures, each with two perturbed parameter
// vectors (batch 0 and batch 1).
func goldenPopulation(t *testing.T) (*tag.Grammar, [2][]*gp.Individual) {
	t.Helper()
	gram, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	rng := rand.New(rand.NewSource(17))
	var pop [2][]*gp.Individual
	for i := 0; i < 16; i++ {
		d, err := gram.RandomDeriv(rng, 2, 14)
		if err != nil {
			t.Fatal(err)
		}
		for b := range pop {
			params := bio.Means(consts)
			for j, c := range consts {
				params[j] += (rng.Float64() - 0.5) * 0.2 * (c.Max - c.Min)
			}
			pop[b] = append(pop[b], gp.NewIndividual(d, params))
		}
	}
	return gram, pop
}

// goldenModes are the evaluator configurations of the fitness digests:
// the tree interpreter, uncached runtime compilation, every speedup, and
// the Fig 10 "TC" mode (the tree cache with simplification over the tree
// interpreter, no compilation).
var goldenModes = []struct {
	name string
	opts evalx.Options
}{
	{"tree", evalx.Options{}},
	{"compile", evalx.Options{UseCompile: true}},
	{"all", evalx.AllSpeedups(bio.SimConfig{})},
	{"cache", evalx.Options{UseCache: true}},
}

// fitnessBits renders each member's fitness bits and full-evaluation flag.
func fitnessBits(inds []*gp.Individual) string {
	bits := make([]string, len(inds))
	for i, ind := range inds {
		bits[i] = fmt.Sprintf("%016x:%t", math.Float64bits(ind.Fitness), ind.FullEval)
	}
	return strings.Join(bits, ",")
}

// TestGoldenFitness scores one fixed population, in two batches (the second
// with perturbed parameters, so cached modes hit their structure tier),
// under each of goldenModes.
func TestGoldenFitness(t *testing.T) {
	ds := goldenDataset(t)
	_, pop := goldenPopulation(t)
	var g goldenLines
	for _, m := range goldenModes {
		opts := m.opts
		opts.Sim = goldenSim(ds)
		ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), opts)
		for b, inds := range pop {
			var scored []*gp.Individual
			ev.BeginBatch()
			for _, ind := range inds {
				c := ind.Clone()
				ev.Evaluate(c)
				scored = append(scored, c)
			}
			ev.EndBatch()
			g.add(fmt.Sprintf("%s/batch%d", m.name, b), "%s", fitnessBits(scored))
		}
	}
	checkGolden(t, "fitness.golden", g)
}

// TestGoldenEvalx pins the batch entry points of the evaluator and its
// counter record. Per mode (the fitness modes plus every speedup under
// injected NaN poison), one worker:
//
//   - param_batch: structure 9 of the golden population scored through
//     EvaluateParamBatch as 16 candidates carrying batch 0's parameter
//     vectors, then 16 carrying batch 1's (the second call runs against a
//     committed short-circuit reference, and its candidates carry the
//     structure key the first call memoized, as refinement proposals carry
//     their champion's);
//   - pop: the population scored through gp.Engine.EvaluatePopulation,
//     first both batches plus exact clones of batch 0 (clusters of three
//     with one intra-cluster duplicate each), then both batches with every
//     parameter scaled by 1.05 (fresh tier-2 keys under a committed
//     reference);
//   - stats: the JSON counter record after each run.
func TestGoldenEvalx(t *testing.T) {
	ds := goldenDataset(t)
	gram, pop := goldenPopulation(t)
	faults, err := faultinject.Parse("seed=5,nan:0.2")
	if err != nil {
		t.Fatal(err)
	}
	modes := append([]struct {
		name string
		opts evalx.Options
	}(nil), goldenModes...)
	nan := evalx.AllSpeedups(bio.SimConfig{})
	nan.Faults = faults
	modes = append(modes, struct {
		name string
		opts evalx.Options
	}{"all+nan", nan})

	clones := func(inds []*gp.Individual, scale float64) []*gp.Individual {
		out := make([]*gp.Individual, len(inds))
		for i, ind := range inds {
			out[i] = ind.Clone()
			for j := range out[i].Params {
				out[i].Params[j] *= scale
			}
		}
		return out
	}
	var g goldenLines
	for _, m := range modes {
		opts := m.opts
		opts.Sim = goldenSim(ds)
		newEval := func() *evalx.Evaluator {
			return evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), bio.DefaultConstants(), opts)
		}

		ev := newEval()
		base := pop[0][9]
		for b, inds := range pop {
			cands := make([]*gp.Individual, len(inds))
			for i, ind := range inds {
				cands[i] = base.Clone()
				cands[i].Params = append([]float64(nil), ind.Params...)
				cands[i].Invalidate()
			}
			ev.BeginBatch()
			ev.EvaluateParamBatch(cands)
			ev.EndBatch()
			g.add(fmt.Sprintf("%s/param_batch%d", m.name, b), "%s", fitnessBits(cands))
			base = cands[0]
		}
		g.add(m.name+"/param_batch/stats", "%s", goldenStatsJSON(t, ev))

		ev = newEval()
		eng, err := gp.NewEngine(gram, ev, gp.Config{PopSize: 48, Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		passes := [][]*gp.Individual{
			append(append(clones(pop[0], 1), clones(pop[1], 1)...), clones(pop[0], 1)...),
			append(clones(pop[0], 1.05), clones(pop[1], 1.05)...),
		}
		for p, inds := range passes {
			eng.EvaluatePopulation(inds)
			g.add(fmt.Sprintf("%s/pop%d", m.name, p), "%s", fitnessBits(inds))
		}
		eng.Close()
		g.add(m.name+"/pop/stats", "%s", goldenStatsJSON(t, ev))
	}
	checkGolden(t, "evalx.golden", g)
}

// TestGoldenCounters pins the evaluator's counter record per generation of
// a clean, single-worker gp.Engine run over an evalx evaluator with every
// batch facet on: the clustered population scheduler, local search, and
// champion refinement's parameter sweeps. It records each generation's best
// fitness bits and the JSON counter record after it. More than one worker
// would move the counts by racing cache misses.
func TestGoldenCounters(t *testing.T) {
	ds := goldenDataset(t)
	gram, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	priors := make([]gp.Prior, len(consts))
	for i, c := range consts {
		priors[i] = gp.Prior{Mean: c.Mean, Min: c.Min, Max: c.Max}
	}
	ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), consts, evalx.AllSpeedups(goldenSim(ds)))
	eng, err := gp.NewEngine(gram, ev, gp.Config{PopSize: 16, MaxGen: 6, LocalSearchSteps: 2, Seed: 11, Workers: 1, Priors: priors})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var g goldenLines
	for step := eng.Start; ; step = eng.StepGen {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		h := eng.LastStats()
		g.add(fmt.Sprintf("gen%d", h.Gen), "best=%016x evals=%d %s", math.Float64bits(h.BestFitness), h.Evaluations, goldenStatsJSON(t, ev))
		if eng.Done() {
			break
		}
	}
	if s := ev.Stats(); s.BatchCalls == 0 || s.PopClusters == 0 {
		t.Fatalf("the run exercised %d parameter sweeps and %d multi-member clusters; it must exercise both", s.BatchCalls, s.PopClusters)
	}
	checkGolden(t, "counters.golden", g)
}

// goldenStatsJSON is the exact JSON encoding of the evaluator's counters.
func goldenStatsJSON(t *testing.T, ev *evalx.Evaluator) string {
	t.Helper()
	b, err := json.Marshal(ev.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenServe pins exact forecast response bodies of a server over the
// golden dataset, serving the unrevised baseline model with a nine-sample
// posterior whose sample 4 diverges: one /v1 and one /v2 point forecast,
// ten concurrent /v2 point forecasts with distinct parameters (co-batched
// into lane cohorts by the batcher), and one nine-member /v2 ensemble.
// Serving with MaxBatch 1 (no co-batching) must reproduce the same bytes.
func TestGoldenServe(t *testing.T) {
	ds := goldenDataset(t)
	ind, gram, err := core.ManualIndividual(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gp.NewBundle(ind, gram, "golden", serve.ConfigDigest(bio.DefaultConstants(), dataset.ModelSimConfig(2, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	b.SavedAt = time.Date(2021, 4, 19, 0, 0, 0, 0, time.UTC) // the model version hashes the file
	consts := bio.DefaultConstants()
	rng := rand.New(rand.NewSource(23))
	samples := make([][]float64, 9)
	for i := range samples {
		v := append([]float64(nil), ind.Params...)
		for j, c := range consts {
			v[j] = math.Min(c.Max, math.Max(c.Min, v[j]+0.05*(c.Max-c.Min)*(rng.Float64()-0.5)))
			if i == 4 {
				v[j] = 1e300
			}
		}
		samples[i] = v
	}
	b.Posterior = gp.NewBundlePosterior("DREAM", samples)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	variants := []goldenVariant[serve.Config]{
		{"default", func(*serve.Config) {}},
		{"maxbatch1", func(c *serve.Config) { c.MaxBatch = 1 }},
	}
	runGoldenVariants(t, variants, func(t *testing.T, mod func(*serve.Config)) {
		cfg := serve.Config{Dataset: ds, ModelsDir: dir, CacheSize: -1, BatchWindow: 20 * time.Millisecond}
		mod(&cfg)
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		post := func(path, body string) string {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("POST %s %s: status %d: %s", path, body, rec.Code, rec.Body)
			}
			return strings.TrimSuffix(rec.Body.String(), "\n")
		}

		var g goldenLines
		g.add("v1/point", "%s", post("/v1/forecast", `{"days":30}`))
		g.add("v2/point", "%s", post("/v2/forecast", `{"days":30,"params":{"CUA":1.5}}`))
		bodies := make([]string, 10)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[i] = post("/v2/forecast", fmt.Sprintf(`{"days":30,"params":{"CUA":%g}}`, 1+0.1*float64(i)))
			}()
		}
		wg.Wait()
		for i, body := range bodies {
			g.add(fmt.Sprintf("v2/concurrent%d", i), "%s", body)
		}
		g.add("v2/ensemble", "%s", post("/v2/forecast", `{"days":30,"ensemble":{"members":9}}`))
		checkGolden(t, "serve.golden", g)
	})
}
