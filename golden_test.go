package gmr

// Golden behaviour digests. Every other determinism test compares two
// results computed inside the same test, so a change that shifts both
// sides the same way (a reordered RNG draw, a different float operation
// order in a simulator) passes silently. These tests pin fixed-seed
// outputs to committed digests under testdata/golden instead:
//
//	dataset.golden  float bits of experiments.DefaultDataset(7)
//	calib.golden    one small-budget calibration per calibrator
//	islands.golden  a tiny 2-island core.RunIslands run per generation budget
//	fitness.golden  a fixed population's fitness under three evaluator modes
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
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/experiments"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/stats"
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
// the file under -update.
func checkGolden(t *testing.T, name string, lines goldenLines) {
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
	for sc.Scan() {
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

// TestGoldenCalibration runs every calibrator once on the river objective
// over the first two years at a small budget. Population calibrators also
// run their batched entry point on the lane-batched objective, so both
// objectives are pinned.
func TestGoldenCalibration(t *testing.T) {
	ds := goldenDataset(t)
	const budget, days = 60, 730
	sim := goldenSim(ds)
	forcing, obs := ds.Forcing[:days], ds.ObsPhy[:days]
	obj, err := calib.RiverObjective(forcing, obs, sim)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := calib.RiverBatchObjective(forcing, obs, sim)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := calib.Box(bio.DefaultConstants())
	var g goldenLines
	for i, c := range calib.All() {
		x, f := c.Calibrate(obj, lo, hi, budget, stats.NewRand(int64(100+i)))
		g.add(c.Name()+"/scalar", "f=%016x x=%s", math.Float64bits(f), floatsDigest(x))
		if bc, ok := c.(calib.BatchCalibrator); ok {
			x, f := bc.CalibrateBatch(batch, lo, hi, budget, stats.NewRand(int64(100+i)))
			g.add(c.Name()+"/batch", "f=%016x x=%s", math.Float64bits(f), floatsDigest(x))
		}
	}
	checkGolden(t, "calib.golden", g)
}

// TestGoldenIslands runs a tiny two-island revision once per generation
// budget, so the first diverging item names the generation. Each item
// carries every island's per-generation best fitness bits, the GP
// champion's canonical model and parameter bits, and the reported
// champion's test RMSE bits
// (pre-calibration and finalize's forecasts included).
func TestGoldenIslands(t *testing.T) {
	ds := goldenDataset(t)
	var g goldenLines
	for gens := 1; gens <= 3; gens++ {
		cfg := core.Config{
			GP: gp.Config{
				PopSize: 10, MaxGen: gens, LocalSearchSteps: 1,
				Seed: 11, Workers: 1,
			},
			Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(experiments.Small.SubSteps, 0, 0)),
			TopK:               5,
			PreCalibrateBudget: 40,
		}
		res, orch, err := core.RunIslands(context.Background(), ds, cfg, core.IslandOptions{Islands: 2, MigrationEvery: 1, Migrants: 1})
		if err != nil {
			t.Fatal(err)
		}
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
	checkGolden(t, "islands.golden", g)
}

// TestGoldenFitness scores one fixed population, in two batches (the second
// with perturbed parameters, so cached modes hit their structure tier),
// under the tree interpreter, uncached runtime compilation and every
// speedup at once.
func TestGoldenFitness(t *testing.T) {
	ds := goldenDataset(t)
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
	modes := []struct {
		name string
		opts evalx.Options
	}{
		{"tree", evalx.Options{}},
		{"compile", evalx.Options{UseCompile: true}},
		{"all", evalx.AllSpeedups(bio.SimConfig{})},
	}
	var g goldenLines
	for _, m := range modes {
		opts := m.opts
		opts.Sim = goldenSim(ds)
		ev := evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), consts, opts)
		for b, inds := range pop {
			var bits []string
			ev.BeginBatch()
			for _, ind := range inds {
				c := ind.Clone()
				ev.Evaluate(c)
				bits = append(bits, fmt.Sprintf("%016x:%t", math.Float64bits(c.Fitness), c.FullEval))
			}
			ev.EndBatch()
			g.add(fmt.Sprintf("%s/batch%d", m.name, b), "%s", strings.Join(bits, ","))
		}
	}
	checkGolden(t, "fitness.golden", g)
}
