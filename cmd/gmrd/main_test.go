package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/gp"
	"gmr/internal/obs"
	"gmr/internal/serve"
)

// TestServeSmoke boots the daemon on a random port against a temp model
// directory (champion bundle with a retained posterior), exercises
// /healthz, /readyz, one /v1/forecast, one /v2/forecast ensemble request,
// and the /v2 typed-envelope error path, then drains it via context
// cancellation (the SIGTERM path). `make serve-smoke` runs it, and
// `make check` runs that target.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	ind, g, err := core.ManualIndividual(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	digest := serve.ConfigDigest(bio.DefaultConstants(), dataset.ModelSimConfig(2, 0, 0))
	bundle, err := gp.NewBundle(ind, g, "smoke champion", digest)
	if err != nil {
		t.Fatal(err)
	}
	// A small retained posterior (the baseline parameters jittered inside
	// the Table III box) so the /v2 ensemble path is exercised too.
	consts := bio.DefaultConstants()
	rng := rand.New(rand.NewSource(11))
	samples := make([][]float64, 16)
	for i := range samples {
		v := append([]float64(nil), ind.Params...)
		for j := range v {
			v[j] += 0.05 * (consts[j].Max - consts[j].Min) * (rng.Float64() - 0.5)
			if v[j] < consts[j].Min {
				v[j] = consts[j].Min
			}
			if v[j] > consts[j].Max {
				v[j] = consts[j].Max
			}
		}
		samples[i] = v
	}
	bundle.Posterior = gp.NewBundlePosterior("DREAM", samples)
	var buf bytes.Buffer
	if err := bundle.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "champion.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-models", dir,
			"-data-seed", "3",
		}, io.Discard, func(addr string) { addrc <- addr })
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before announcing: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not start in time")
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	body, _ := json.Marshal(map[string]any{"days": 21})
	resp, err := http.Post(base+"/v1/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast: status %d: %s", resp.StatusCode, rb)
	}
	var fr serve.ForecastResponse
	if err := json.Unmarshal(rb, &fr); err != nil {
		t.Fatalf("forecast body %q: %v", rb, err)
	}
	if fr.Quarantined || len(fr.Predictions) != 21 {
		t.Fatalf("forecast response: %+v", fr)
	}
	for i, p := range fr.Predictions {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction %d is non-finite: %v", i, p)
		}
	}

	// /v2/forecast: an ensemble request against the same model returns
	// quantile bands computed through the lane kernel.
	body, _ = json.Marshal(map[string]any{
		"days":     21,
		"ensemble": map[string]any{"members": 16},
	})
	resp, err = http.Post(base+"/v2/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 forecast: status %d: %s", resp.StatusCode, rb)
	}
	var er serve.ForecastResponse
	if err := json.Unmarshal(rb, &er); err != nil {
		t.Fatalf("v2 forecast body %q: %v", rb, err)
	}
	if er.Ensemble == nil || er.Ensemble.Survivors != 16 {
		t.Fatalf("v2 forecast has no full ensemble block: %s", rb)
	}
	for _, band := range []string{"q05", "q50", "q95"} {
		if len(er.Ensemble.Bands[band]) != 21 {
			t.Fatalf("v2 forecast band %s: %d days, want 21", band, len(er.Ensemble.Bands[band]))
		}
	}

	// /v2 error contract: a malformed request answers with the typed
	// envelope {"error":{"code","message",...}} and a stable code.
	resp, err = http.Post(base+"/v2/forecast", "application/json",
		bytes.NewReader([]byte(`{"days": 21, "bogus_field": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("v2 bad request: status %d: %s", resp.StatusCode, rb)
	}
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rb, &env); err != nil || env.Error == nil {
		t.Fatalf("v2 error body is not the typed envelope: %s", rb)
	}
	if env.Error.Code != "bad_request" || env.Error.Message == "" {
		t.Fatalf("v2 error envelope: %s", rb)
	}

	// Observability endpoints: /metrics validates as a Prometheus text
	// exposition and reflects the forecast just served; /debug/spans and
	// /debug/pprof/ answer off the same listener.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateExposition(expo); err != nil {
		t.Fatalf("/metrics exposition invalid: %v\n%s", err, expo)
	}
	for _, series := range []string{
		`gmr_serve_requests_total{code="ok"} 2`,
		`gmr_serve_requests_total{code="bad_request"} 1`,
		"gmr_serve_ensemble_members",
		"gmr_serve_band_seconds",
		"gmr_obs_spans_recorded_total",
	} {
		if !bytes.Contains(expo, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	for _, path := range []string{"/debug/spans", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, rb)
		}
		if path == "/debug/spans" {
			var spans []obs.SpanRecord
			if err := json.Unmarshal(rb, &spans); err != nil {
				t.Fatalf("/debug/spans body %q: %v", rb, err)
			}
			if len(spans) == 0 {
				t.Error("no spans recorded on the serving path")
			}
		}
	}

	cancel() // SIGTERM-equivalent: graceful drain
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain in time")
	}
}

// TestServeRequiresModelsDir: flag values the daemon cannot serve with are
// usage errors, reported before any data is loaded.
func TestServeRequiresModelsDir(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-models is required"},
		{[]string{"-models", t.TempDir(), "-substeps", "0"}, "-substeps must be at least 1"},
		{[]string{"-models", t.TempDir(), "-max-batch", "-1"}, "-max-batch must be between 0 and 8"},
		{[]string{"-models", t.TempDir(), "-max-batch", "100"}, "-max-batch must be between 0 and 8"},
		{[]string{"-models", t.TempDir(), "-span-ring", "0", "-slow-span", "5ms"}, "-slow-span requires -span-ring above 0"},
	} {
		err := runServe(context.Background(), tc.args, io.Discard, nil)
		if err == nil {
			t.Fatalf("runServe %q succeeded", tc.args)
		}
		if err.Error() != tc.want {
			t.Fatalf("runServe %q: error %q, want %q", tc.args, err, tc.want)
		}
	}
}
