package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gmr/internal/gp"
	"gmr/internal/serve/api"
)

func postForecast(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/forecast", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHTTPEndpoints(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.CacheSize = 64 })
	writeBundle(t, dir, "foreign", testBundle(t, "foreign", 0), func(b *gp.ModelBundle) {
		b.GrammarHash = "deadbeef"
	})
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	// /v1/models surfaces the rejected bundle with its reason code.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models api.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.Champion != "champion" {
		t.Fatalf("champion %q", models.Champion)
	}
	byID := map[string]api.ModelInfo{}
	for _, m := range models.Models {
		byID[m.ID] = m
	}
	if m := byID["foreign"]; m.Status != string(StatusRejected) || m.Reason != RejectGrammarMismatch {
		t.Fatalf("foreign model: %+v", m)
	}
	if m := byID["champion"]; m.Status != string(StatusReady) || !m.Champion || m.ServingRMSE <= 0 {
		t.Fatalf("champion model: %+v", m)
	}

	// Forecast: 200 with finite predictions.
	hr, body := postForecast(t, ts.URL, &ForecastRequest{Days: 14})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d: %s", hr.StatusCode, body)
	}
	var fr ForecastResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Predictions) != 14 {
		t.Fatalf("%d predictions", len(fr.Predictions))
	}
	for _, p := range fr.Predictions {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("non-finite prediction in %v", fr.Predictions)
		}
	}

	// A repeat of the same request is served from the response cache,
	// byte-identical.
	hr2, body2 := postForecast(t, ts.URL, &ForecastRequest{Days: 14})
	if hr2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("cached response differs: %d %q vs %q", hr2.StatusCode, body, body2)
	}
	if hits, _, _ := s.respCache.stats(); hits == 0 {
		t.Fatal("response cache recorded no hit")
	}

	// Error mapping. A horizon whose end day overflows int is a bad
	// request, not a panic.
	start := 5
	for _, tc := range []struct {
		req    any
		status int
		code   string
	}{
		{&ForecastRequest{Days: 0}, http.StatusBadRequest, "bad_request"},
		{&ForecastRequest{Start: &start, Days: math.MaxInt}, http.StatusBadRequest, "bad_request"},
		{&ForecastRequest{Days: 5, Model: "nope"}, http.StatusNotFound, ""},
		{&ForecastRequest{Days: 5, Model: "foreign"}, http.StatusNotFound, ""},
		{"not json", http.StatusBadRequest, ""},
	} {
		hr, body := postForecast(t, ts.URL, tc.req)
		if hr.StatusCode != tc.status {
			t.Fatalf("req %+v: status %d (%s), want %d", tc.req, hr.StatusCode, body, tc.status)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code == "" {
			t.Fatalf("error body %q not coded: %v", body, err)
		}
		if tc.code != "" && eb.Code != tc.code {
			t.Fatalf("req %+v: code %q, want %q", tc.req, eb.Code, tc.code)
		}
	}

	// Metrics exposition includes the core families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`gmr_serve_requests_total{code="ok"}`,
		"gmr_serve_lane_batches_total",
		"gmr_serve_lane_fill_ratio",
		"gmr_serve_queue_depth",
		"gmr_serve_request_seconds_bucket",
		"gmr_serve_response_cache_hits_total",
		`gmr_serve_models{status="rejected"} 1`,
		`gmr_serve_evalx{counter="compiles"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Reload endpoint returns the fresh catalog.
	rr, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var after api.ModelsResponse
	if err := json.NewDecoder(rr.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || after.CatalogVersion <= models.CatalogVersion {
		t.Fatalf("reload: status %d version %d (was %d)", rr.StatusCode, after.CatalogVersion, models.CatalogVersion)
	}
}

func TestReadyzWhileDraining(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	// Liveness is unaffected; new forecasts are refused with 503.
	lr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", lr.StatusCode)
	}
	fr, body := postForecast(t, ts.URL, &ForecastRequest{Days: 5})
	if fr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forecast while draining: %d (%s)", fr.StatusCode, body)
	}
}

func TestReadyzNoModels(t *testing.T) {
	s, err := New(Config{Dataset: testDataset(t), ModelsDir: t.TempDir(), CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty catalog: %d", resp.StatusCode)
	}
}
