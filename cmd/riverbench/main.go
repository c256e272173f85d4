// Command riverbench regenerates the paper's evaluation tables and figures
// on the synthetic Nakdong dataset:
//
//	riverbench -exp tablev [-scale small|medium|paper] [-methods GMR,GGGP,...]
//	riverbench -exp fig9
//	riverbench -exp fig10 [-pop 60]
//	riverbench -exp fig11
//	riverbench -exp ablation
//	riverbench -exp all
//
// Rows are printed in the paper's layout so results can be compared side by
// side with Table V and Figures 1, 9, 10, and 11 (see EXPERIMENTS.md).
// Performance is measured elsewhere: end to end by the benchmark in bench/
// (the revise_islands and serve_point workloads), and per layer by the Go
// benchmarks that `make bench` runs, whose allocation ceilings are tests.
// Island-model runs (elite migration, JSONL telemetry, checkpoints, fault
// injection) are gmr's: gmr -islands N.
//
// SIGINT/SIGTERM stop experiments gracefully at the next boundary (method,
// sweep setting, or GP generation), reporting whatever completed.
//
// Profiling: -cpuprofile and -memprofile write pprof files for any
// experiment; -pprof ADDR serves net/http/pprof for live inspection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"gmr/internal/dataset"
	"gmr/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "tablev", "experiment: tablev, fig9, fig10, fig11, ablation, or all")
		scale    = flag.String("scale", "small", "budget scale: small, medium, or paper")
		seed     = flag.Int64("seed", 1, "master seed (dataset uses seed, methods use derived seeds)")
		dsSeed   = flag.Int64("data-seed", 7, "synthetic dataset seed")
		methods  = flag.String("methods", "", "comma-separated Table V method filter (empty = all)")
		pop      = flag.Int("pop", 60, "fig10 workload size (individuals)")
		md       = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables (for EXPERIMENTS.md)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; experiments stop at their next
	// boundary and report partial results. A second signal kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	interrupted := func(err error) bool {
		if errors.Is(err, context.Canceled) {
			fmt.Println("\ninterrupted — reporting results completed so far")
			return true
		}
		return false
	}

	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	var ds *dataset.Dataset // generated once the flags are known to be valid

	runTableV := func() {
		filter := map[string]bool{}
		if *methods != "" {
			for _, m := range strings.Split(*methods, ",") {
				filter[strings.TrimSpace(m)] = true
			}
		}
		rows, err := experiments.TableV(ctx, ds, sc, *seed, filter)
		if err != nil && !interrupted(err) {
			fatal(err)
		}
		if *md {
			fmt.Printf("Table V / Figure 1 — forecasting accuracy (scale %s)\n\n", sc.Name)
			if err := experiments.WriteTableVMarkdown(os.Stdout, rows); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		fmt.Printf("Table V / Figure 1 — forecasting accuracy (scale %s)\n", sc.Name)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Class\tMethod\tTrain RMSE\tTrain MAE\tTest RMSE\tTest MAE\tSeconds")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.1f\n",
				r.Class, r.Method, r.TrainRMSE, r.TrainMAE, r.TestRMSE, r.TestMAE, r.Seconds)
		}
		w.Flush()
		fmt.Println()
	}

	runFig9 := func() {
		sel, res, err := experiments.Fig9(ctx, ds, sc, *seed)
		if err != nil {
			if interrupted(err) {
				return
			}
			fatal(err)
		}
		fmt.Printf("Figure 9 — variable selectivity among the %d best models\n", len(res.TopModels))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Variable\tSelectivity %\tCorrelation")
		for _, s := range sel {
			fmt.Fprintf(w, "%s\t%.0f\t%s\n", s.Variable, s.Percent, s.Correlation)
		}
		w.Flush()
		fmt.Printf("\nbest revised model (train RMSE %.3f, test RMSE %.3f):\n", res.TrainRMSE, res.TestRMSE)
		fmt.Printf("  dBPhy/dt = %s\n", res.BestPhy.Pretty())
		fmt.Printf("  dBZoo/dt = %s\n\n", res.BestZoo.Pretty())
	}

	runFig10 := func() {
		rows, err := experiments.Fig10(ctx, ds, sc, *pop, *seed)
		if err != nil && !interrupted(err) {
			fatal(err)
		}
		if *md {
			fmt.Printf("Figure 10 — mean evaluation time per individual (%d individuals)\n\n", *pop)
			if err := experiments.WriteFig10Markdown(os.Stdout, rows); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		fmt.Printf("Figure 10 — mean evaluation time per individual (%d individuals)\n", *pop)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Speedups\tMean/individual\tSpeedup")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%.1f×\n", r.Combo, r.MeanPerIndividual, r.Speedup)
		}
		w.Flush()
		fmt.Println()
	}

	runAblation := func() {
		rows, err := experiments.AblationKnowledge(ctx, ds, sc, *seed)
		if err != nil && !interrupted(err) {
			fatal(err)
		}
		fmt.Println("Ablation — knowledge incorporation (equal budget)")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Configuration\tTrain RMSE\tTest RMSE")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", r.Config, r.TrainRMSE, r.TestRMSE)
		}
		w.Flush()
		fmt.Println()
	}

	runFig11 := func() {
		rows, err := experiments.Fig11(ctx, ds, sc, *seed)
		if err != nil && !interrupted(err) {
			fatal(err)
		}
		if *md {
			fmt.Println("Figure 11 — effect of evaluation short-circuiting thresholds")
			fmt.Println()
			if err := experiments.WriteFig11Markdown(os.Stdout, rows); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		fmt.Println("Figure 11 — effect of evaluation short-circuiting thresholds")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Setting\tEval. steps\tTrain RMSE\tTest RMSE\t% fully eval. among best")
		var ref experiments.Fig11Row
		for _, r := range rows {
			if r.Label == "ES TH-1.0" {
				ref = r
			}
		}
		for _, r := range rows {
			rel := func(v, base float64) string {
				if base == 0 {
					return "n/a"
				}
				return fmt.Sprintf("%.2f", v/base)
			}
			fmt.Fprintf(w, "%s\t%d (rel %s)\t%.3f (rel %s)\t%.3f (rel %s)\t%.0f%%\n",
				r.Label,
				r.StepsEvaluated, rel(float64(r.StepsEvaluated), float64(ref.StepsEvaluated)),
				r.TrainRMSE, rel(r.TrainRMSE, ref.TrainRMSE),
				r.TestRMSE, rel(r.TestRMSE, ref.TestRMSE),
				100*r.FullyEvalAmongBest)
		}
		w.Flush()
		fmt.Println()
	}

	run, ok := map[string]func(){
		"tablev":   runTableV,
		"fig9":     runFig9,
		"fig10":    runFig10,
		"fig11":    runFig11,
		"ablation": runAblation,
		"all": func() {
			runTableV()
			runFig9()
			runFig10()
			runFig11()
			runAblation()
		},
	}[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if err := startProfiles(*cpuProf, *memProf, *pprofSrv); err != nil {
		fatal(err)
	}
	defer profileStop()
	fmt.Printf("generating synthetic Nakdong dataset (seed %d)...\n", *dsSeed)
	var err error
	if ds, err = experiments.DefaultDataset(*dsSeed); err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d days, train %d, test %d\n\n", ds.Days, ds.TrainEnd, ds.Days-ds.TrainEnd)
	run()
}

func fatal(err error) {
	profileStop()
	fmt.Fprintln(os.Stderr, "riverbench:", err)
	os.Exit(1)
}
