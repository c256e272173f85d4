package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/experiments"
	"gmr/internal/gp"
	"gmr/internal/obs"
)

// trainSpec is the training workload's job: a whole model revision on the
// fixed synthetic Nakdong dataset, as the gmr CLI runs it with islands.
type trainSpec struct {
	pop, gens, localSearch int
	// precal is the pre-calibration budget in objective evaluations.
	precal  int
	islands int
}

// revise_islands is GP-heavy: the generation loop, clustered lane
// evaluation and orchestrator barriers do most of the work, with a token
// pre-calibration. One island per core of the 2-core reference machine.
// The size is capped by memory, not time: the evaluator keeps every
// structure's exogenous plan (about 200 KB each) for the whole job, so heap
// grows with generations; at this size a job peaks under 500 MiB of heap,
// and the pre-calibration budget is cut to match, or its serial per-island
// GA would outweigh the GP loop. A job takes about a second, so a run
// times dozens of them.
var reviseIslands = trainSpec{pop: 40, gens: 10, localSearch: 3, precal: 50, islands: 2}

// toy shrinks a training workload to a few hundred evaluations, for tests.
func (w trainSpec) toy() trainSpec {
	w.pop, w.gens, w.localSearch, w.precal = 8, 2, 1, 40
	return w
}

func (w trainSpec) config(seed int64, tracer *obs.Tracer) core.Config {
	return core.Config{
		GP: gp.Config{
			PopSize:          w.pop,
			MaxGen:           w.gens,
			LocalSearchSteps: w.localSearch,
			Seed:             seed,
		},
		Eval:               evalx.AllSpeedups(dataset.ModelSimConfig(experiments.Small.SubSteps, 0, 0)),
		Runs:               1,
		TopK:               experiments.Small.TopK,
		PreCalibrateBudget: w.precal,
		Tracer:             tracer,
	}
}

// trainRep is one timed job.
type trainRep struct {
	wall, cpu  time.Duration
	digest     string
	testRMSE   float64
	stats      evalx.Stats
	migrations int
}

// runJob runs the workload's job once, timing the public call
// core.RunIslands. With a tracer the call is wrapped in a bench.job span.
func (w trainSpec) runJob(ds *dataset.Dataset, seed int64, tracer *obs.Tracer) (trainRep, error) {
	cfg := w.config(seed, tracer)
	// Collect the previous job's heap first, so jobs do not stack their
	// peaks and each starts from the same state.
	runtime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	span := tracer.Start("bench.job")
	res, orch, err := core.RunIslands(context.Background(), ds, cfg, core.IslandOptions{Islands: w.islands})
	span.End()
	rep := trainRep{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if err != nil {
		return rep, err
	}
	rep.migrations = orch.Migrations
	rep.testRMSE = res.TestRMSE
	rep.stats = res.EvalStats
	rep.digest = championDigest(res, rep.migrations)
	return rep, nil
}

// championDigest fingerprints a job's outcome: the champion's canonical
// phy|zoo expressions, the bits of its test RMSE and the migration count.
// Two runs of one seed must agree on it. The evaluator counters are left
// out: with more than one evaluation worker, workers racing on the same
// structure can both miss the caches, so counts such as Compiles and
// CacheHits differ by a few between runs while the champion does not.
func championDigest(res *core.Result, migrations int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%x|%d", res.BestPhy, res.BestZoo, math.Float64bits(res.TestRMSE), migrations)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// seedStride separates the GP seeds of one run's jobs.
const seedStride = 7919

// runTrain measures the training workload: set-up (dataset generation)
// several times, then jobs until the measuring budget is spent, each after
// a reference-kernel sample. Job j runs GP seed seed+j·seedStride, so a
// run's times cover dozens of search trajectories, whose cost varies with
// the seed; one more job then repeats the first seed, and the two must
// yield the same champion digest. The traced run instead alternates untraced and traced
// jobs of the first seed for the budget.
func runTrain(env *runEnv) (*report, error) {
	w := reviseIslands
	if env.toy {
		w = w.toy()
	}
	rep := newReport()
	ds, setup, measured, err := timedSetups(env.setups, func() (*dataset.Dataset, error) {
		return experiments.DefaultDataset(7)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.note("setup_s_measured", measured, "s")
	meter := &speedMeter{}

	digests := map[int64]string{}
	job := func(seed int64, tracer *obs.Tracer) (trainRep, error) {
		r, err := w.runJob(ds, seed, tracer)
		rep.attempted++
		if err != nil {
			rep.failed++
			return r, err
		}
		if d, ok := digests[seed]; !ok {
			digests[seed] = r.digest
		} else if d != r.digest {
			rep.problem("seed %d: champion digest %s differs from the first job's %s", seed, r.digest, d)
		}
		return r, nil
	}
	start := time.Now()
	more := func() bool { return !env.toy && time.Since(start) < env.budget }

	var first trainRep
	if env.traced {
		tracer := env.sink.tracer()
		var plain, traced []trainRep
		for len(plain) == 0 || more() {
			p, err := job(env.seed, nil)
			if err != nil {
				return nil, err
			}
			t, err := job(env.seed, tracer)
			if err != nil {
				return nil, err
			}
			plain, traced = append(plain, p), append(traced, t)
		}
		trainLayers(rep, plain, traced, env.sink.take())
		env.keepSpans(rep)
		first = plain[0]
	} else {
		var walls, cpus []float64
		var total time.Duration
		for j := 0; ; j++ {
			seed, repeat := env.seed+int64(j)*seedStride, j > 0 && !more()
			if repeat {
				seed = env.seed
			}
			meter.sample()
			r, err := job(seed, nil)
			if err != nil {
				return nil, err
			}
			if j == 0 {
				first = r
			}
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
			total += r.wall
			if repeat {
				break
			}
		}
		rep.e2e["p50_ms"] = median(walls) * 1e3
		rep.e2e["cpu_ms_per_op"] = median(cpus) * 1e3
		rep.e2e["ops_per_s"] = float64(len(walls)) / total.Seconds()
		rep.scaleToReference(meter, "p50_ms", "cpu_ms_per_op", "ops_per_s")
		// Too few jobs for a tail with ten samples beyond it; p90 leaves
		// four of forty beyond it.
		sort.Float64s(walls)
		rep.note("p90_ms_measured", percentile(walls, 0.9)*1e3, "ms")
		rep.note("jobs", float64(len(walls)), "count")
	}
	rep.digest = first.digest
	rep.testRMSE = first.testRMSE
	rep.note("test_rmse", first.testRMSE, "RMSE")
	return rep, nil
}

// trainLayers fills the per-layer metrics from the traced jobs' spans and
// the first traced job's evaluator counters, with the untraced jobs as the
// reference for CPU use and tracing overhead. Busy times are per job.
func trainLayers(rep *report, plain, traced []trainRep, spans []obs.SpanRecord) {
	att := attribute(spans)
	rep.spans = spans
	known := 0.0
	for _, l := range []string{"core", "orchestrator", "gp", "evalx"} {
		rep.layers[l+".share"] = att.Share[l]
		known += att.Share[l]
	}
	rep.layers["other.share"] = math.Max(0, 1-known)
	for _, l := range []string{"orchestrator", "gp", "evalx"} {
		rep.layers[l+".busy_s"] = att.Busy[l] / float64(len(traced))
	}
	// Span time is wall time, so with more evaluation workers than cores
	// (one pool per island) the utilisation can exceed 1.
	isEvalx := func(name string) bool { return layerOf(name) == "evalx" }
	inside, evalWall := coverage(spans, isEvalx, "gp.evaluate")
	if evalWall > 0 {
		rep.layers["gp.worker_util"] = inside / (evalWall * float64(runtime.GOMAXPROCS(0)))
	}

	seconds := func(reps []trainRep, f func(trainRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	wall := func(r trainRep) float64 { return r.wall.Seconds() }
	plainWall, tracedWall := seconds(plain, wall), seconds(traced, wall)
	rep.layers["process.cpu_util"] = seconds(plain, func(r trainRep) float64 { return r.cpu.Seconds() }) /
		(plainWall * float64(runtime.NumCPU()))
	rep.layers["trace.overhead"] = tracedWall/plainWall - 1
	rep.note("wall_s_untraced", plainWall, "s")
	rep.note("wall_s_traced", tracedWall, "s")
	rep.note("pairs", float64(len(plain)), "count")
	rep.note("spans", float64(len(spans)), "count")

	st := traced[0].stats
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.layers["evalx.evaluations"] = float64(st.Evaluations)
	rep.layers["evalx.short_circuit_ratio"] = ratio(st.ShortCircuits, st.Evaluations)
	rep.layers["evalx.sim_step_ratio"] = ratio(st.StepsEvaluated, st.StepsPossible)
	rep.layers["evalx.tier1_hit_ratio"] = ratio(st.Tier1Hits, st.Evaluations)
	rep.layers["evalx.tier2_hit_ratio"] = ratio(st.CacheHits, st.Evaluations)
	rep.layers["evalx.compiles"] = float64(st.Compiles)
	rep.layers["evalx.lane_fill"] = ratio(st.LanesFilled, st.LaneBatches*laneWidth)
	rep.layers["evalx.pop_lane_fill"] = ratio(st.PopLanesFilled, st.PopLaneBatches*laneWidth)
	rep.layers["evalx.pop_scalar_fallbacks"] = float64(st.PopScalarFallbacks)
	rep.layers["evalx.quarantines"] = float64(st.Quarantined())
	rep.layers["orchestrator.migrations"] = float64(traced[0].migrations)
}
