// Package report renders the outcome of a GMR run as a human-oriented
// document: forecast metrics, the revised differential equations with the
// revisions highlighted against the manual process, the Figure 9
// variable-selectivity analysis, the parameter-sensitivity ranking, and
// the evolution history. cmd/gmr and the examples use it to produce
// consistent output.
package report

import (
	"fmt"
	"io"
	"strings"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/expr"
)

// Options selects report sections.
type Options struct {
	// Selectivity enables the Figure 9 analysis (costs one simulation
	// per model per variable).
	Selectivity bool
	// Sensitivity enables the parameter-sensitivity ranking of the best
	// model.
	Sensitivity bool
	// History prints per-generation best fitness for each run.
	History bool
	// AnalysisWindowDays bounds the simulation window used by the
	// analyses; zero means 730.
	AnalysisWindowDays int
}

// Write renders the report for a finished run.
func Write(w io.Writer, ds *dataset.Dataset, res *core.Result, opts Options) error {
	if res == nil || res.Best == nil {
		return fmt.Errorf("report: empty result")
	}
	fmt.Fprintf(w, "GMR revision report\n")
	fmt.Fprintf(w, "===================\n\n")
	fmt.Fprintf(w, "data: %d days (train %d, test %d)\n\n", ds.Days, ds.TrainEnd, ds.Days-ds.TrainEnd)
	fmt.Fprintf(w, "accuracy (best model, selected by test RMSE per the paper's protocol):\n")
	fmt.Fprintf(w, "  train  RMSE %8.3f   MAE %8.3f\n", res.TrainRMSE, res.TrainMAE)
	fmt.Fprintf(w, "  test   RMSE %8.3f   MAE %8.3f\n\n", res.TestRMSE, res.TestMAE)

	fmt.Fprintf(w, "revised process:\n")
	fmt.Fprintf(w, "  dBPhy/dt = %s\n", res.BestPhy.Pretty())
	fmt.Fprintf(w, "  dBZoo/dt = %s\n\n", res.BestZoo.Pretty())

	fmt.Fprintf(w, "revisions relative to the manual process:\n")
	for _, d := range DiffAgainstManual(res.BestPhy, res.BestZoo) {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintln(w)

	st := res.EvalStats
	if st.Evaluations > 0 {
		frac := 0.0
		if st.StepsPossible > 0 {
			frac = 100 * float64(st.StepsEvaluated) / float64(st.StepsPossible)
		}
		fmt.Fprintf(w, "evaluator: %d evaluations (%d full, %d short-circuited, %d cache hits); %.1f%% of fitness cases simulated\n",
			st.Evaluations, st.FullEvals, st.ShortCircuits, st.CacheHits, frac)
		if st.LaneBatches > 0 {
			fmt.Fprintf(w, "lane kernel: %d batches, %.1f avg lanes filled, %d lane short circuits\n",
				st.LaneBatches, float64(st.LanesFilled)/float64(st.LaneBatches), st.LaneShortCircuits)
		}
		if st.PopClusters > 0 || st.PopScalarFallbacks > 0 {
			fill := 0.0
			if st.PopLaneBatches > 0 {
				fill = float64(st.PopLanesFilled) / float64(st.PopLaneBatches)
			}
			fmt.Fprintf(w, "pop scheduler: %d clusters, %d scalar fallbacks, %d lane batches (%.1f avg fill)\n",
				st.PopClusters, st.PopScalarFallbacks, st.PopLaneBatches, fill)
		}
		fmt.Fprintln(w)
	}

	window := ds.TrainForcing()
	limit := opts.AnalysisWindowDays
	if limit == 0 {
		limit = 730
	}
	if len(window) > limit {
		window = window[:limit]
	}
	sim := dataset.ModelSimConfig(4, ds.ObsPhy[0], ds.ObsZoo[0])

	if opts.Selectivity && len(res.TopModels) > 0 {
		sel, err := core.AnalyzeSelectivity(res.TopModels, bio.DefaultConstants(), window, sim)
		if err == nil {
			fmt.Fprintf(w, "variable selectivity among the %d best models (Figure 9):\n", len(res.TopModels))
			for _, s := range sel {
				bar := strings.Repeat("#", int(s.Percent/5))
				fmt.Fprintf(w, "  %-5s %5.1f%% %-20s %s\n", s.Variable, s.Percent, bar, s.Correlation)
			}
			fmt.Fprintln(w)
		}
	}

	if opts.Sensitivity {
		sens, err := core.AnalyzeParamSensitivity(res.Best, bio.DefaultConstants(), window, sim)
		if err == nil {
			fmt.Fprintf(w, "parameter sensitivity of the best model (+10%% perturbation):\n")
			for _, s := range sens {
				fmt.Fprintf(w, "  %-6s %.4f\n", s.Name, s.Relative)
			}
			fmt.Fprintln(w)
		}
	}

	if opts.History {
		for i, r := range res.PerRun {
			fmt.Fprintf(w, "run %d best fitness by generation:", i)
			step := len(r.History) / 10
			if step < 1 {
				step = 1
			}
			for g := 0; g < len(r.History); g += step {
				fmt.Fprintf(w, " %d:%.2f", r.History[g].Gen, r.History[g].BestFitness)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// DiffAgainstManual describes, line by line, how the revised equations
// differ from the manual process: new variables recruited and the change
// in expression size per equation.
func DiffAgainstManual(phy, zoo *expr.Node) []string {
	var out []string
	manPhy := expr.Simplify(bio.PhyDeriv())
	manZoo := expr.Simplify(bio.ZooDeriv())
	out = append(out, diffOne("dBPhy/dt", manPhy, phy)...)
	out = append(out, diffOne("dBZoo/dt", manZoo, zoo)...)
	return out
}

func diffOne(label string, manual, revised *expr.Node) []string {
	var out []string
	if revised == nil {
		return []string{label + ": missing"}
	}
	if manual.String() == revised.String() {
		return []string{label + ": unrevised"}
	}
	manVars := map[string]bool{}
	for _, v := range manual.Vars() {
		manVars[v] = true
	}
	var added []string
	for _, v := range revised.Vars() {
		if !manVars[v] {
			added = append(added, v)
		}
	}
	if len(added) > 0 {
		out = append(out, fmt.Sprintf("%s: recruited %s", label, strings.Join(added, ", ")))
	}
	out = append(out, fmt.Sprintf("%s: size %d → %d nodes", label, manual.Size(), revised.Size()))
	return out
}
