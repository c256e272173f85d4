// Package e2e holds end-to-end pipeline tests spanning training, model
// export, registry loading, and serving — the full gmr → gmrd lifecycle
// in one process, so the parity contracts between the offline and serving
// stacks are asserted where a unit test of either side cannot see them.
package e2e

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
	"gmr/internal/serve"
)

// TestTrainExportServeParity runs the whole pipeline: a tiny deterministic
// evolutionary run trains a champion, the champion is exported as a
// deployable bundle (exactly the gmr -export-model path), a serving
// registry loads and validates the bundle, and a served forecast over the
// test window must be bitwise equal to the offline simulation of the same
// individual (evalx.Compile, then Predict) — the contract that makes serving
// results comparable with the paper-protocol offline metrics. The whole
// test runs in-process and is part of the -race suite, so it also
// exercises the training/serving observability plane under the race
// detector.
func TestTrainExportServeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full train→export→serve pipeline")
	}
	const subSteps = 2
	ds, err := dataset.Generate(dataset.Config{
		Seed: 5, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Train: one small deterministic run, calibration disabled so the
	// test stays fast. The observability plane is attached end to end.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{Ring: 256})
	tracer.RegisterMetrics(reg)
	cfg := core.Config{
		GP:   gp.Config{PopSize: 12, MaxGen: 2, LocalSearchSteps: 1, Seed: 9, Workers: 2},
		Eval: evalx.AllSpeedups(dataset.ModelSimConfig(subSteps, 0, 0)),
		Runs: 1, TopK: 5,
		PreCalibrateBudget: -1,
		Obs:                reg,
		Tracer:             tracer,
	}
	res, err := core.RunContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Export: the gmr -export-model bundle, byte for byte the same
	// construction (grammar hash + serving-config digest included).
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	sim := dataset.ModelSimConfig(subSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	bundle, err := gp.NewBundle(res.Best, g, "e2e champion", serve.ConfigDigest(bio.DefaultConstants(), sim))
	if err != nil {
		t.Fatal(err)
	}
	bundle.TrainRMSE, bundle.TestRMSE = res.TrainRMSE, res.TestRMSE
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := bundle.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "champion.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Serve: registry load + validation, then a forecast over the whole
	// test window (default start = first test day), on the same registry
	// and tracer the training run used — one observability plane across
	// the process lifecycle.
	srv, err := serve.New(serve.Config{
		Dataset:   ds,
		SubSteps:  subSteps,
		ModelsDir: dir,
		CacheSize: -1, // force execution: parity must not come from a cache
		Obs:       reg,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	days := ds.Days - ds.TrainEnd
	resp, code, err := srv.Forecast(context.Background(), &serve.ForecastRequest{Days: days})
	if err != nil {
		t.Fatalf("forecast: %v (%s)", err, code)
	}
	if resp.Quarantined {
		t.Fatalf("champion quarantined in serving: %s at day %d", resp.Reason, resp.Died)
	}
	if resp.Start != ds.TrainEnd || len(resp.Predictions) != days {
		t.Fatalf("served window [%d,+%d), want [%d,+%d)", resp.Start, len(resp.Predictions), ds.TrainEnd, days)
	}

	// Offline reference: the paper-protocol free-run simulation of the
	// same individual over the same window and integration regime.
	simTest := dataset.ModelSimConfig(subSteps, ds.ObsPhy[ds.TrainEnd], ds.ObsZoo[ds.TrainEnd])
	m, err := evalx.Compile(res.Best, bio.DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	want := m.Predict(ds.TestForcing(), res.Best.Params, simTest)
	if len(want) != len(resp.Predictions) {
		t.Fatalf("offline %d days, served %d", len(want), len(resp.Predictions))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(resp.Predictions[i]) {
			t.Fatalf("day %d: served %v (bits %x) != offline %v (bits %x)",
				i, resp.Predictions[i], math.Float64bits(resp.Predictions[i]),
				want[i], math.Float64bits(want[i]))
		}
	}

	// The shared registry observed the whole pipeline: training counters
	// (run-labeled), serving counters, and span totals in one exposition.
	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.Bytes()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, series := range []string{
		`gmr_evalx{counter="evaluations",run="0"}`,
		`gmr_gp_generation{run="0"} 2`,
		"gmr_serve_lane_batches_total 1",
		"gmr_obs_spans_recorded_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}
