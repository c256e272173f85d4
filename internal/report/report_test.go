package report

import (
	"strings"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/expr"
	"gmr/internal/gp"
)

func testRun(t *testing.T) (*dataset.Dataset, *core.Result) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: 4, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(ds, core.Config{
		GP:   gp.Config{PopSize: 16, MaxGen: 3, LocalSearchSteps: 1, Seed: 2},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(2, 0, 0)),
		TopK: 5, PreCalibrateBudget: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, res
}

func TestWriteReportSections(t *testing.T) {
	ds, res := testRun(t)
	var buf strings.Builder
	err := Write(&buf, ds, res, Options{
		Selectivity: true, Sensitivity: true, History: true, AnalysisWindowDays: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"GMR revision report",
		"train  RMSE",
		"test   RMSE",
		"dBPhy/dt =",
		"dBZoo/dt =",
		"revisions relative to the manual process",
		"evaluator:",
		"variable selectivity",
		"parameter sensitivity",
		"run 0 best fitness by generation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n----\n%s", want, out)
		}
	}
}

func TestWriteEmptyResult(t *testing.T) {
	if err := Write(&strings.Builder{}, nil, nil, Options{}); err == nil {
		t.Error("nil result accepted")
	}
}

func TestDiffAgainstManual(t *testing.T) {
	// Unrevised process → "unrevised" lines.
	phy := expr.Simplify(bio.PhyDeriv())
	zoo := expr.Simplify(bio.ZooDeriv())
	lines := DiffAgainstManual(phy, zoo)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "dBPhy/dt: unrevised") || !strings.Contains(joined, "dBZoo/dt: unrevised") {
		t.Errorf("unrevised process not detected:\n%s", joined)
	}
	// Revision recruiting a new variable.
	revised := expr.Add(phy.Clone(), expr.NewVar("Vph"))
	lines = DiffAgainstManual(revised, zoo)
	joined = strings.Join(lines, "\n")
	if !strings.Contains(joined, "recruited Vph") {
		t.Errorf("recruited variable not reported:\n%s", joined)
	}
	if !strings.Contains(joined, "size") {
		t.Errorf("size change not reported:\n%s", joined)
	}
}
