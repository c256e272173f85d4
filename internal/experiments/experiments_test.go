package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"gmr/internal/dataset"
)

// tinyScale keeps experiment tests fast.
var tinyScale = Scale{
	Name:   "tiny",
	GMRPop: 16, GMRGen: 3, GMRRuns: 1, GMRLocalSearch: 1,
	GGGPPop: 24, GGGPGen: 3,
	CalibBudget: 150,
	RNNEpochs:   3,
	SubSteps:    2,
	TopK:        5,
}

var testDS *dataset.Dataset

func tinyData(t *testing.T) *dataset.Dataset {
	t.Helper()
	if testDS == nil {
		ds, err := dataset.Generate(dataset.Config{Seed: 13, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
		if err != nil {
			t.Fatal(err)
		}
		testDS = ds
	}
	return testDS
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper"} {
		sc, ok := ScaleByName(name)
		if !ok || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, ok)
		}
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Error("bogus scale accepted")
	}
}

func TestTableVSubset(t *testing.T) {
	ds := tinyData(t)
	rows, err := TableV(context.Background(), ds, tinyScale, 1, map[string]bool{
		"MANUAL": true, "SA": true, "GMR": true, "ARIMAX-S1": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byMethod := map[string]TableVRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if math.IsNaN(r.TestRMSE) {
			t.Errorf("%s: NaN test RMSE", r.Method)
		}
		if r.TrainMAE > r.TrainRMSE+1e-9 && !math.IsInf(r.TrainRMSE, 1) {
			t.Errorf("%s: MAE %v > RMSE %v", r.Method, r.TrainMAE, r.TrainRMSE)
		}
	}
	// The central ordering claims at any scale: calibration beats the
	// unrevised manual model.
	if byMethod["SA"].TestRMSE >= byMethod["MANUAL"].TestRMSE {
		t.Errorf("SA %v did not beat MANUAL %v", byMethod["SA"].TestRMSE, byMethod["MANUAL"].TestRMSE)
	}
	if byMethod["GMR"].TestRMSE >= byMethod["MANUAL"].TestRMSE {
		t.Errorf("GMR %v did not beat MANUAL %v", byMethod["GMR"].TestRMSE, byMethod["MANUAL"].TestRMSE)
	}
}

func TestFig10ShapeEveryTechniqueHelps(t *testing.T) {
	ds := tinyData(t)
	rows, err := Fig10(context.Background(), ds, tinyScale, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d combos, want 8", len(rows))
	}
	byName := map[string]Fig10Row{}
	for _, r := range rows {
		byName[r.Combo] = r
		if r.MeanPerIndividual <= 0 {
			t.Errorf("%s: non-positive time", r.Combo)
		}
	}
	if byName["None"].Speedup != 1 {
		t.Errorf("baseline speedup = %v, want 1", byName["None"].Speedup)
	}
	// ES is the dominant single technique at small scale; the full combo
	// must beat the bare baseline.
	if byName["TC+RC+ES"].MeanPerIndividual >= byName["None"].MeanPerIndividual {
		t.Error("all speedups together slower than none")
	}
	if byName["ES"].MeanPerIndividual >= byName["None"].MeanPerIndividual {
		t.Error("ES alone slower than none")
	}
}

func TestFig11ThresholdShape(t *testing.T) {
	ds := tinyData(t)
	rows, err := Fig11(context.Background(), ds, tinyScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d settings, want 4", len(rows))
	}
	byLabel := map[string]Fig11Row{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	noES := byLabel["No ES"]
	eager := byLabel["ES TH-0.7"]
	lax := byLabel["ES TH-1.3"]
	if noES.StepsEvaluated == 0 || eager.StepsEvaluated == 0 {
		t.Fatal("missing step counts")
	}
	// Short-circuiting must reduce evaluated steps, and the eager
	// threshold at least as aggressively as the lax one.
	if eager.StepsEvaluated > noES.StepsEvaluated {
		t.Errorf("ES 0.7 evaluated more steps (%d) than no ES (%d)",
			eager.StepsEvaluated, noES.StepsEvaluated)
	}
	if eager.StepsEvaluated > lax.StepsEvaluated {
		t.Errorf("threshold 0.7 (%d steps) less eager than 1.3 (%d)",
			eager.StepsEvaluated, lax.StepsEvaluated)
	}
	for _, r := range rows {
		if r.FullyEvalAmongBest < 0 || r.FullyEvalAmongBest > 1 {
			t.Errorf("%s: fully-evaluated fraction %v", r.Label, r.FullyEvalAmongBest)
		}
	}
}

func TestFig9SelectivityRuns(t *testing.T) {
	ds := tinyData(t)
	sel, res, err := Fig9(context.Background(), ds, tinyScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 10 {
		t.Fatalf("selectivity over %d variables, want 10", len(sel))
	}
	if len(res.TopModels) == 0 {
		t.Fatal("no top models")
	}
}

func TestDefaultDataset(t *testing.T) {
	ds, err := DefaultDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Days < 4000 || ds.TrainEnd < 3000 {
		t.Errorf("default dataset too small: %d days, train %d", ds.Days, ds.TrainEnd)
	}
}

func TestAblationKnowledge(t *testing.T) {
	ds := tinyData(t)
	rows, err := AblationKnowledge(context.Background(), ds, tinyScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.TestRMSE) || math.IsInf(r.TestRMSE, 0) {
			t.Errorf("%s: invalid test RMSE %v", r.Config, r.TestRMSE)
		}
	}
}

func TestUnconstrainedExtensionsCoverAllVariables(t *testing.T) {
	exts := UnconstrainedExtensions()
	for _, e := range exts {
		if len(e.Vars) != 10 {
			t.Errorf("Ext%d has %d variables, want 10", e.ID, len(e.Vars))
		}
	}
}

func TestMarkdownWriters(t *testing.T) {
	var buf strings.Builder
	rows := []TableVRow{{Class: "X", Method: "M", TrainRMSE: 1, TrainMAE: 0.5, TestRMSE: 2, TestMAE: 1}}
	if err := WriteTableVMarkdown(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| X | M | 1 | 0.5 | 2 | 1 |") {
		t.Errorf("markdown table malformed:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteFig10Markdown(&buf, []Fig10Row{{Combo: "TC", MeanPerIndividual: time.Millisecond, Speedup: 2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| TC | 1ms | 2.0× |") {
		t.Errorf("fig10 markdown malformed:\n%s", buf.String())
	}
	buf.Reset()
	f11 := []Fig11Row{
		{Label: "ES TH-1.0", StepsEvaluated: 100, TrainRMSE: 2, TestRMSE: 3, FullyEvalAmongBest: 1},
		{Label: "ES TH-0.7", StepsEvaluated: 50, TrainRMSE: 2.2, TestRMSE: 3.1, FullyEvalAmongBest: 0.9},
	}
	if err := WriteFig11Markdown(&buf, f11); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| ES TH-0.7 | 50 (0.50)") {
		t.Errorf("fig11 markdown malformed:\n%s", buf.String())
	}
}
