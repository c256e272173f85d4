// Command gmr runs genetic model revision on a river water quality dataset
// and prints the revised process:
//
//	gmr [-data nakdong.csv] [-pop 150] [-gens 60] [-runs 2] [-seed 1]
//	gmr -islands 4 [-migrate-every 5] [-migrants 2] \
//	    [-checkpoint run.ckpt] [-resume] [-telemetry run.jsonl] \
//	    [-faults "seed=42,panic:0.01,nan:0.01"] [-eval-deadline 2s] \
//	    [-metrics-addr :9090] [-slow-span 100ms]
//
// -metrics-addr serves the unified observability plane while the run
// executes: /metrics (Prometheus text exposition of per-run or per-island
// progress and evaluator counters), /debug/spans (phase span ring), and
// /debug/pprof (runtime profiles). In islands mode the JSONL telemetry
// additionally carries per-generation registry snapshots ("obs" records).
//
// Without -data, a synthetic Nakdong dataset is generated (seed 7). The
// output reports train/test accuracy, the revised differential equations,
// evaluator utilization (cache hits, short circuits, lane-batched kernel
// fill), and the Figure 9 variable-selectivity analysis over the run's
// best models.
//
// With -islands N, the -runs sequential restarts are replaced by N
// cooperating islands that exchange elites on a ring every -migrate-every
// generations. -checkpoint enables crash-safe snapshots; -resume restores
// one (the other flags must match the run that wrote it). -telemetry
// streams per-generation JSONL records.
//
// SIGINT/SIGTERM stop the run gracefully at the next generation barrier:
// the models evolved so far are reported, and in islands mode a final
// checkpoint is written when -checkpoint is set. A second signal kills the
// process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gmr/internal/bio"
	"gmr/internal/calib"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
	"gmr/internal/report"
	"gmr/internal/serve"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset CSV (from datagen); empty = generate synthetic data")
		pop       = flag.Int("pop", 150, "population size")
		gens      = flag.Int("gens", 60, "generations")
		runs      = flag.Int("runs", 2, "independent runs (ignored with -islands)")
		ls        = flag.Int("ls", 6, "local search steps per offspring")
		seed      = flag.Int64("seed", 1, "seed")
		subSteps  = flag.Int("substeps", 2, "Euler substeps per day")
		noES      = flag.Bool("no-es", false, "disable evaluation short-circuiting")
		noCluster = flag.Bool("nocluster", false, "disable the structure-clustered population scheduler (ablation; bitwise-identical results, scalar speed)")
		analyze   = flag.Bool("analyze", true, "run the variable-selectivity analysis")
		savePath  = flag.String("save", "", "write the best revised model (derivation + parameters) to this JSON file")
		exportTo  = flag.String("export-model", "", "write the best model as a deployable bundle (gmrd serve registry format) to this JSON file")
		posterior = flag.Int("posterior", 0, "with -export-model, retain up to N posterior parameter samples around the champion's structure (DREAM over the training window) for ensemble forecasting")

		islands     = flag.Int("islands", 0, "run as an island model with this many islands (0 = sequential runs)")
		migEvery    = flag.Int("migrate-every", 0, "generations between elite migrations (0 = default 5, <0 disables)")
		migrants    = flag.Int("migrants", 0, "elites sent per migration (0 = default 2)")
		checkpoint  = flag.String("checkpoint", "", "checkpoint file path (islands mode; empty disables)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint cadence in generations (0 = default 10)")
		resumeRun   = flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		telemetryTo = flag.String("telemetry", "", "write JSONL run telemetry to this file (islands mode)")

		faultSpec = flag.String("faults", "", `chaos-testing fault spec, e.g. "seed=42,panic:0.01,nan:0.01,latency:0.005:2ms,trunc:0.1" (empty disables)`)
		deadline  = flag.Duration("eval-deadline", 0, "per-evaluation wall-clock deadline (0 disables; breaks bitwise determinism)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/spans, and /debug/pprof on this address while the run executes (empty disables)")
		slowSpan    = flag.Duration("slow-span", 0, "log phase spans slower than this threshold (0 disables; requires -metrics-addr)")
	)
	flag.Parse()
	if *subSteps < 1 {
		// Training would fall back to bio's default substeps while an
		// exported bundle's config digest records the raw value.
		fmt.Fprintln(flag.CommandLine.Output(), "-substeps must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *runs < 1 && *islands <= 0 {
		// core treats zero runs as one and rejects negative counts; say
		// so before any data loads.
		fmt.Fprintln(flag.CommandLine.Output(), "-runs must be at least 1 (or use -islands)")
		flag.Usage()
		os.Exit(2)
	}

	faults, ferr := faultinject.Parse(*faultSpec)
	if ferr != nil {
		fatal(ferr)
	}
	if faults != nil {
		fmt.Printf("fault injection enabled: %s\n", faults)
	}

	// SIGINT/SIGTERM cancel the context; the run stops at the next
	// generation barrier and partial results are reported. A second
	// signal terminates immediately (signal.NotifyContext unregisters).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ds *dataset.Dataset
	var err error
	if *dataPath == "" {
		fmt.Println("generating synthetic Nakdong dataset (seed 7)...")
		ds, err = dataset.Generate(dataset.Config{Seed: 7})
	} else {
		var f *os.File
		f, err = os.Open(*dataPath)
		if err == nil {
			ds, err = dataset.ReadCSV(f)
			f.Close()
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d days (train %d, test %d)\n", ds.Days, ds.TrainEnd, ds.Days-ds.TrainEnd)

	eval := evalx.AllSpeedups(dataset.ModelSimConfig(*subSteps, 0, 0))
	if *noES {
		eval.UseShortCircuit = false
	}
	eval.Faults = faults
	eval.EvalDeadline = *deadline
	cfg := core.Config{
		GP:   gp.Config{PopSize: *pop, MaxGen: *gens, LocalSearchSteps: *ls, Seed: *seed, NoCluster: *noCluster},
		Eval: eval,
		Runs: *runs,
		TopK: 50,
	}

	// -metrics-addr turns on the unified observability plane for the run:
	// a registry fed by engine progress gauges and evaluator counters, a
	// span tracer threaded through every layer, and one HTTP listener
	// exposing /metrics (Prometheus text), /debug/spans, and /debug/pprof.
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(obs.TracerConfig{
			Ring:          512,
			SlowThreshold: *slowSpan,
			SlowLog: func(rec obs.SpanRecord) {
				fmt.Fprintf(os.Stderr, "gmr: slow span %s: %s\n", rec.Name, rec.Dur)
			},
		})
		tracer.RegisterMetrics(reg)
		cfg.Obs = reg
		cfg.Tracer = tracer

		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		obs.Mount(mux, reg, tracer)
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			hs.Shutdown(sctx)
			cancel()
		}()
		fmt.Printf("metrics on http://%s/metrics (spans: /debug/spans, profiles: /debug/pprof)\n", ln.Addr())
	}

	var res *core.Result
	if *islands > 0 {
		var tele io.Writer
		if *telemetryTo != "" {
			f, err := os.Create(*telemetryTo)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			tele = f
		}
		if *resumeRun {
			fmt.Printf("resuming %d islands from %s...\n", *islands, *checkpoint)
		} else {
			fmt.Printf("running GMR islands: %d islands × %d×%d, local search %d...\n",
				*islands, *pop, *gens, *ls)
		}
		r, orch, err := core.RunIslands(ctx, ds, cfg, core.IslandOptions{
			Islands:         *islands,
			MigrationEvery:  *migEvery,
			Migrants:        *migrants,
			CheckpointPath:  *checkpoint,
			CheckpointEvery: *ckptEvery,
			Resume:          *resumeRun,
			Telemetry:       tele,
			Faults:          faults,
		})
		if err != nil {
			fatal(err)
		}
		if orch.Interrupted {
			fmt.Printf("\ninterrupted at generation %d/%d", orch.Generations, *gens)
			if *checkpoint != "" {
				fmt.Printf(" — checkpoint written to %s (continue with -resume)", *checkpoint)
			}
			fmt.Println()
		}
		fmt.Printf("generations %d, migrations %d, best from island %d\n",
			orch.Generations, orch.Migrations, orch.BestIsland)
		if s := faults.Snapshot(); s != nil {
			fmt.Printf("faults injected: %d panics, %d nan poisons, %d latencies, %d checkpoint truncations\n",
				s.Panics, s.NaNs, s.Latencies, s.Truncations)
		}
		res = r
	} else {
		fmt.Printf("running GMR: %d×%d, %d runs, local search %d...\n", *pop, *gens, *runs, *ls)
		res, err = core.RunContext(ctx, ds, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fatal(fmt.Errorf("interrupted before any model was evolved"))
			}
			fatal(err)
		}
		if ctx.Err() != nil {
			fmt.Println("\ninterrupted — reporting the models evolved so far")
		}
	}

	fmt.Println()
	if err := report.Write(os.Stdout, ds, res, report.Options{
		Selectivity: *analyze,
		Sensitivity: *analyze,
		History:     false,
	}); err != nil {
		fatal(err)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := res.Best.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Printf("\nsaved best model to %s\n", *savePath)
	}
	// -export-model packages the champion for gmrd serve: the bundle
	// carries the grammar hash and the serving-config digest so a daemon
	// running an incompatible grammar or integration regime rejects it
	// instead of forecasting garbage. Runs on the interrupt path too —
	// partial champions are still deployable.
	if *exportTo != "" {
		g, err := grammar.River(grammar.DefaultExtensions())
		if err != nil {
			fatal(err)
		}
		sim := dataset.ModelSimConfig(*subSteps, ds.ObsPhy[0], ds.ObsZoo[0])
		bundle, err := gp.NewBundle(res.Best, g, "gmr champion", serve.ConfigDigest(bio.DefaultConstants(), sim))
		if err != nil {
			fatal(err)
		}
		bundle.TrainRMSE = res.TrainRMSE
		bundle.TestRMSE = res.TestRMSE
		// -posterior N samples the parameter posterior around the champion's
		// structure: the GP winner's equations are frozen and DREAM explores
		// only the Table III parameter box against training RMSE, retaining a
		// bounded, deterministically thinned set of post-burn-in chain states
		// (DESIGN.md §15). The retained states ship inside the bundle,
		// digest-guarded, for gmrd's ensemble forecasts.
		if *posterior > 0 {
			consts := bio.DefaultConstants()
			m, err := evalx.Compile(res.Best, consts)
			if err != nil {
				fatal(err)
			}
			budget := 8 * *posterior
			if budget < 2048 {
				budget = 2048
			}
			fmt.Printf("sampling posterior: DREAM, budget %d, burn-in %d, retaining ≤%d states...\n",
				budget, budget/2, *posterior)
			lo, hi := calib.Box(consts)
			dr := calib.NewDREAM()
			dr.Record = calib.NewPosteriorRecorder(*posterior, budget/2)
			obj := calib.StructureBatchObjective(m.SegSystem, ds.TrainForcing(), ds.TrainObsPhy(), sim)
			dr.CalibrateBatch(obj, lo, hi, budget, rand.New(rand.NewSource(*seed)))
			post := dr.Record.Posterior()
			if post == nil || len(post.Samples) == 0 {
				fatal(fmt.Errorf("posterior sampling retained no states"))
			}
			bundle.Posterior = gp.NewBundlePosterior("DREAM", post.Samples)
			fmt.Printf("posterior: retained %d of %d post-burn-in states (stride %d)\n",
				len(post.Samples), post.Seen, post.Stride)
		}
		f, err := os.Create(*exportTo)
		if err != nil {
			fatal(err)
		}
		if err := bundle.Write(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Printf("exported model bundle to %s (grammar %s, config %s)\n",
			*exportTo, bundle.GrammarHash, bundle.ConfigDigest)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmr:", err)
	os.Exit(1)
}
