package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gmr/internal/obs"
)

// scrapeMetric fetches /metrics and returns the value of the exactly
// named series (name including any label block), failing the test when
// the exposition does not validate or the series is missing.
func scrapeMetric(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s value %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}

// TestMetricsSingleOwnerAcrossReload is the regression test for the
// double-reporting bug: the serve /metrics exposition used to copy the
// evalx snapshot counters into its own writer, so a component that also
// published them (or a reload re-registering gauges) yielded duplicate
// families. With the obs registry as single owner, the exposition must
// stay structurally valid (no duplicate TYPE lines or series — the
// validator rejects both) across hot reloads, evalx counters must not
// re-count unchanged models, and catalog gauges must track the reload.
func TestMetricsSingleOwnerAcrossReload(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.CacheSize = 64 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code, err := s.Forecast(context.Background(), &ForecastRequest{Days: 7}); err != nil {
		t.Fatalf("forecast: %v (%s)", err, code)
	}

	evalsBefore := scrapeMetric(t, ts.URL, `gmr_serve_evalx{counter="evaluations"}`)
	if evalsBefore <= 0 {
		t.Fatalf("validation evaluator counted %v evaluations, want > 0", evalsBefore)
	}
	versionBefore := scrapeMetric(t, ts.URL, "gmr_serve_catalog_version")

	// Two hot reloads with an unchanged directory: every scrape must
	// stay valid (the validator fails on any duplicated family or series
	// line), the unchanged bundle must be reused by content hash — so
	// the evaluator runs no new validation evaluations — and the reload
	// counter and catalog version must advance.
	for i := 1; i <= 2; i++ {
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if got := scrapeMetric(t, ts.URL, `gmr_serve_evalx{counter="evaluations"}`); got != evalsBefore {
			t.Fatalf("reload %d re-counted evaluations: %v → %v (double report)", i, evalsBefore, got)
		}
		// The initial load counts as reload 1 (Registry.Reloads is ≥1
		// after New), so i hot reloads put the counter at i+1.
		if got := scrapeMetric(t, ts.URL, "gmr_serve_reloads_total"); got != float64(i+1) {
			t.Fatalf("reloads_total = %v after %d reloads", got, i)
		}
	}
	if got := scrapeMetric(t, ts.URL, "gmr_serve_catalog_version"); got != versionBefore+2 {
		t.Fatalf("catalog version %v, want %v", got, versionBefore+2)
	}

	// A genuinely new model does re-validate (one more evaluation), but
	// still lands in the same single family.
	writeBundle(t, dir, "challenger", testBundle(t, "challenger", 0.05))
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := scrapeMetric(t, ts.URL, `gmr_serve_evalx{counter="evaluations"}`); got != evalsBefore+1 {
		t.Fatalf("new model: evaluations %v, want %v", got, evalsBefore+1)
	}
	if got := scrapeMetric(t, ts.URL, `gmr_serve_models{status="ready"}`); got != 2 {
		t.Fatalf("ready models = %v, want 2", got)
	}
}

// TestSharedRegistryOneExposition pins the shared-registry contract: a
// server handed an external obs.Registry publishes on it, so one scrape
// covers serving families alongside anything else in the process (here,
// tracer counters) — and a second server lifecycle over the same
// registry (restart-style) re-registers without duplicating families.
func TestSharedRegistryOneExposition(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{Ring: 32})
	tracer.RegisterMetrics(reg)

	s, dir := newTestServer(t, func(c *Config) { c.Obs = reg; c.Tracer = tracer })
	if _, code, err := s.Forecast(context.Background(), &ForecastRequest{Days: 5}); err != nil {
		t.Fatalf("forecast: %v (%s)", err, code)
	}
	ts := httptest.NewServer(s.Handler())
	if scrapeMetric(t, ts.URL, "gmr_serve_lane_batches_total") < 1 {
		t.Fatal("serving counters not on the shared registry")
	}
	if scrapeMetric(t, ts.URL, "gmr_obs_spans_recorded_total") < 1 {
		t.Fatal("tracer spans not recorded on the serving path")
	}
	ts.Close()
	s.Close()

	// Second server over the same registry and models: registration is
	// get-or-create, so the exposition stays single-copy (scrapeMetric
	// validates it) and counters continue, not reset.
	cfg := Config{Dataset: testDataset(t), ModelsDir: dir, CacheSize: -1, Obs: reg, Tracer: tracer}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if scrapeMetric(t, ts2.URL, "gmr_serve_lane_batches_total") < 1 {
		t.Fatal("restart reset shared counters")
	}
}

// TestCohortDispatchesByReason: every cohort that leaves the batcher is
// counted once under why it left, so a scrape shows which rule served the
// traffic. On a fresh server a lone forecast leaves at once ("idle"); a
// second one right behind it means partners are due, so it waits out the
// window. With MaxBatch 1 every request is a full cohort.
func TestCohortDispatchesByReason(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
		want     map[string]float64
	}{
		{"batched", 0, map[string]float64{"idle": 1, "window": 1}},
		{"maxbatch1", 1, map[string]float64{"full": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, func(c *Config) {
				c.MaxBatch = tc.maxBatch
				c.BatchWindow = 200 * time.Millisecond
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for i := 0; i < 2; i++ {
				if _, code, err := s.Forecast(context.Background(), &ForecastRequest{Days: 7}); err != nil {
					t.Fatalf("forecast: %v (%s)", err, code)
				}
			}
			for _, reason := range dispatchReasons {
				got := scrapeMetric(t, ts.URL, `gmr_serve_cohort_dispatches_total{reason="`+reason+`"}`)
				if got != tc.want[reason] {
					t.Errorf("dispatches{reason=%q} = %v, want %v", reason, got, tc.want[reason])
				}
			}
		})
	}
}
