package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmr/internal/gp"
	"gmr/internal/serve/api"
)

// newV2Server is newTestServer plus a posterior-carrying champion and an
// httptest frontend.
func newV2Server(t *testing.T, samples int, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	writeBundle(t, dir, "champion", withPosterior(t, testBundle(t, "champion", 0), samples, 99))
	cfg := Config{Dataset: testDataset(t), ModelsDir: dir, CacheSize: -1}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postV2(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/forecast", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v2/forecast: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// decodeEnvelope asserts the body is exactly the typed error envelope and
// returns it.
func decodeEnvelope(t *testing.T, body []byte) *api.ErrorEnvelope {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env api.ErrorEnvelope
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("body is not the error envelope: %v\n%s", err, body)
	}
	if env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %s", body)
	}
	return &env
}

// TestV2ErrorTable drives every /v2/forecast rejection path and asserts
// the status, the stable wire code, and the envelope shape.
func TestV2ErrorTable(t *testing.T) {
	_, ts := newV2Server(t, 8, nil)

	big := fmt.Sprintf(`{"days": 7, "model": %q}`, strings.Repeat("x", maxBodyBytes))
	cases := []struct {
		name        string
		method      string
		contentType string
		body        string
		wantStatus  int
		wantCode    string
		wantAllow   string
	}{
		{"wrong method", http.MethodGet, "application/json", "", http.StatusMethodNotAllowed, api.CodeBadRequest, "POST"},
		{"delete method", http.MethodDelete, "application/json", "", http.StatusMethodNotAllowed, api.CodeBadRequest, "POST"},
		{"bad content type", http.MethodPost, "text/plain", `{"days":7}`, http.StatusUnsupportedMediaType, api.CodeBadRequest, ""},
		{"malformed json", http.MethodPost, "application/json", `{"days":`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"unknown field", http.MethodPost, "application/json", `{"days":7,"bogus":1}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"trailing data", http.MethodPost, "application/json", `{"days":7}{"days":8}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"oversized body", http.MethodPost, "application/json", big, http.StatusRequestEntityTooLarge, api.CodeBadRequest, ""},
		{"days zero", http.MethodPost, "application/json", `{"days":0}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"start and date", http.MethodPost, "application/json", `{"days":7,"start":3,"date":"2000-05-01"}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"window overrun", http.MethodPost, "application/json", `{"days":100000}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"window end overflows", http.MethodPost, "application/json", `{"start":5,"days":9223372036854775807}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"zero members", http.MethodPost, "application/json", `{"days":7,"ensemble":{"members":0}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"members over cap", http.MethodPost, "application/json", `{"days":7,"ensemble":{"members":4096}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"quantile zero", http.MethodPost, "application/json", `{"days":7,"ensemble":{"members":4,"quantiles":[0]}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"quantile above one", http.MethodPost, "application/json", `{"days":7,"ensemble":{"members":4,"quantiles":[1.5]}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"ensemble with params", http.MethodPost, "application/json", `{"days":7,"params":{"CDZ":0.06},"ensemble":{"members":4}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"unknown model", http.MethodPost, "application/json", `{"days":7,"model":"nope"}`, http.StatusNotFound, api.CodeModelNotFound, ""},
		{"unknown station", http.MethodPost, "application/json", `{"days":7,"station":"S9"}`, http.StatusBadRequest, api.CodeBadRequest, ""},
		{"unknown override", http.MethodPost, "application/json", `{"days":7,"overrides":{"NoSuch":1.1}}`, http.StatusBadRequest, api.CodeBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+"/v2/forecast", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, buf.Bytes())
			}
			env := decodeEnvelope(t, buf.Bytes())
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if tc.wantAllow != "" && resp.Header.Get("Allow") != tc.wantAllow {
				t.Fatalf("Allow %q, want %q", resp.Header.Get("Allow"), tc.wantAllow)
			}
		})
	}
}

// TestV2EnsembleOnPosteriorlessModel: asking for bands from a model that
// carries no posterior block is a client error with a helpful message.
func TestV2EnsembleOnPosteriorlessModel(t *testing.T) {
	s, _ := newTestServer(t, nil) // plain champion, no posterior
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postV2(t, ts, `{"days":7,"ensemble":{"members":4}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != api.CodeBadRequest || !strings.Contains(env.Error.Message, "posterior") {
		t.Fatalf("envelope %+v", env.Error)
	}
}

// TestV2EnsembleForecast exercises the happy path: members simulate
// through the lane kernel, bands come back named, ordered, and sized.
func TestV2EnsembleForecast(t *testing.T) {
	const days, members, samples = 21, 8, 12
	_, ts := newV2Server(t, samples, nil)

	resp, body := postV2(t, ts, fmt.Sprintf(`{"days":%d,"ensemble":{"members":%d}}`, days, members))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fr api.ForecastResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fr.Ensemble == nil {
		t.Fatal("no ensemble block")
	}
	e := fr.Ensemble
	if e.Members != members || e.Survivors != members {
		t.Fatalf("members %d survivors %d, want %d/%d", e.Members, e.Survivors, members, members)
	}
	if e.PosteriorDigest == "" {
		t.Fatal("no posterior digest")
	}
	wantBands := []string{"q05", "q25", "q50", "q75", "q95"}
	if len(e.Bands) != len(wantBands) {
		t.Fatalf("bands %v", e.Bands)
	}
	for _, name := range wantBands {
		if len(e.Bands[name]) != days {
			t.Fatalf("band %s has %d days, want %d", name, len(e.Bands[name]), days)
		}
	}
	for d := 0; d < days; d++ {
		for i := 1; i < len(wantBands); i++ {
			lo, hi := e.Bands[wantBands[i-1]][d], e.Bands[wantBands[i]][d]
			if lo > hi {
				t.Fatalf("day %d: %s=%v > %s=%v", d, wantBands[i-1], lo, wantBands[i], hi)
			}
		}
	}
	if len(fr.Predictions) != days || len(e.Spread) != days {
		t.Fatalf("predictions/spread lengths %d/%d", len(fr.Predictions), len(e.Spread))
	}
	for d := 0; d < days; d++ {
		if fr.Predictions[d] < e.Bands["q05"][d]-1e-9 || fr.Predictions[d] > e.Bands["q95"][d]+1e-9 {
			t.Fatalf("day %d: mean %v outside [q05,q95]", d, fr.Predictions[d])
		}
		if e.Spread[d] < 0 {
			t.Fatalf("day %d: negative spread", d)
		}
	}

	// Custom quantile set: names follow BandName, count follows request.
	resp, body = postV2(t, ts, fmt.Sprintf(`{"days":%d,"ensemble":{"members":4,"quantiles":[0.1,0.9]}}`, days))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	fr = api.ForecastResponse{}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Ensemble.Bands) != 2 || fr.Ensemble.Bands["q10"] == nil || fr.Ensemble.Bands["q90"] == nil {
		t.Fatalf("bands %v", fr.Ensemble.Bands)
	}

	// Members beyond the retained posterior clamp to what exists.
	resp, body = postV2(t, ts, fmt.Sprintf(`{"days":%d,"ensemble":{"members":%d}}`, days, samples+100))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	fr = api.ForecastResponse{}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Ensemble.Members != samples {
		t.Fatalf("members %d, want clamp to %d", fr.Ensemble.Members, samples)
	}
}

// TestV2ModelsPosteriorSamples: the v2 catalog reports posterior sizes;
// method discipline holds.
func TestV2ModelsPosteriorSamples(t *testing.T) {
	const samples = 6
	_, ts := newV2Server(t, samples, nil)
	resp, err := http.Get(ts.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr api.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 1 || mr.Models[0].PosteriorSamples != samples {
		t.Fatalf("models %+v", mr.Models)
	}
	if mr.Champion != "champion" || !mr.Models[0].Champion {
		t.Fatalf("champion not flagged: %+v", mr)
	}

	post, err := http.Post(ts.URL+"/v2/models", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed || post.Header.Get("Allow") != "GET" {
		t.Fatalf("POST /v2/models: %d Allow=%q", post.StatusCode, post.Header.Get("Allow"))
	}
}

// TestV2EnsembleDeterministic is the tentpole determinism property: the
// same ensemble request against the default server and servers with
// Workers=1, Workers=8, and batching disabled returns bitwise-identical
// bodies — chunking and concurrency are invisible to the bands. The
// inputs are a short ragged ensemble with custom quantiles and a
// 64-member full-year forecast (eight whole launches).
func TestV2EnsembleDeterministic(t *testing.T) {
	bundle := withPosterior(t, testBundle(t, "champion", 0), 64, 99)
	var blob bytes.Buffer
	if err := bundle.Write(&blob); err != nil {
		t.Fatal(err)
	}
	build := func(mod func(*Config)) *httptest.Server {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "champion.json"), blob.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Dataset: testDataset(t), ModelsDir: dir, CacheSize: -1}
		if mod != nil {
			mod(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	servers := []*httptest.Server{
		build(nil),
		build(func(c *Config) { c.Workers = 1 }),
		build(func(c *Config) { c.Workers = 8 }),
		build(func(c *Config) { c.MaxBatch = 1 }),
	}
	for _, reqBody := range []string{
		`{"days":28,"ensemble":{"members":13,"quantiles":[0.05,0.5,0.95]}}`,
		`{"days":365,"ensemble":{"members":64}}`,
	} {
		var first []byte
		for i, ts := range servers {
			resp, body := postV2(t, ts, reqBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: server %d: status %d: %s", reqBody, i, resp.StatusCode, body)
			}
			if i == 0 {
				first = body
				continue
			}
			if !bytes.Equal(first, body) {
				t.Fatalf("%s: server %d body differs from server 0:\n%s\nvs\n%s", reqBody, i, body, first)
			}
		}
	}
}

// TestV2EnsembleLaneFill: an ensemble packs its members into whole kernel
// launches, so full-year forecasts at 8, 64 and 256 members keep every
// member and fill at least 90% of the lanes they launch. The fill is read
// off the serving lane counters (gmr_serve_lane_{batches,members}_total),
// as deltas per request on one server.
func TestV2EnsembleLaneFill(t *testing.T) {
	const days, minFill = 365, 0.90
	s, ts := newV2Server(t, 256, nil)
	for _, members := range []int{8, 64, 256} {
		batches0, lanes0 := s.m.laneBatches.Value(), s.m.laneMembers.Value()
		resp, body := postV2(t, ts, fmt.Sprintf(`{"days":%d,"ensemble":{"members":%d}}`, days, members))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d members: status %d: %s", members, resp.StatusCode, body)
		}
		var fr api.ForecastResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatalf("%d members: decode: %v", members, err)
		}
		if fr.Ensemble == nil || fr.Ensemble.Survivors != members {
			t.Fatalf("%d members: ensemble %+v, want %d survivors", members, fr.Ensemble, members)
		}
		batches := s.m.laneBatches.Value() - batches0
		lanes := s.m.laneMembers.Value() - lanes0
		if batches == 0 {
			t.Fatalf("%d members: no kernel launch counted", members)
		}
		if fill := float64(lanes) / float64(batches*laneWidth); fill < minFill {
			t.Errorf("%d members: mean lane fill %.3f (%d members over %d launches) is below %.2f",
				members, fill, lanes, batches, minFill)
		}
	}
}

// TestV2ResponseCache: identical ensemble requests hit the serialized
// response cache; the bytes are identical and the executor runs once.
func TestV2ResponseCache(t *testing.T) {
	s, ts := newV2Server(t, 8, func(c *Config) { c.CacheSize = 32 })
	const reqBody = `{"days":14,"ensemble":{"members":8}}`
	_, b1 := postV2(t, ts, reqBody)
	_, b2 := postV2(t, ts, reqBody)
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached ensemble response differs")
	}
	hits, _, _ := s.respCache.stats()
	if hits < 1 {
		t.Fatalf("cache hits %d, want ≥1", hits)
	}
}

// TestV2V1CacheKeysDisjoint: the same point request served through /v1
// and /v2 occupies two cache entries (wire-version salt), so a future
// serialization divergence can never cross surfaces.
func TestV2V1CacheKeysDisjoint(t *testing.T) {
	s, ts := newV2Server(t, 4, func(c *Config) { c.CacheSize = 32 })
	const reqBody = `{"days":7}`
	resp, err := http.Post(ts.URL+"/v1/forecast", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postV2(t, ts, reqBody)
	hits, misses, _ := s.respCache.stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (disjoint keys)", hits, misses)
	}
}

// TestV2EnsembleQuarantine: a posterior containing a divergent sample
// reports the member fault and reduces over the survivors; a posterior of
// only divergent samples quarantines the whole response.
func TestV2EnsembleQuarantine(t *testing.T) {
	bundle := withPosterior(t, testBundle(t, "champion", 0), 4, 99)
	// Replace the last sample with a finite-but-absurd vector: it passes
	// registry validation (finite) and overflows the integrator.
	bad := make([]float64, len(bundle.Posterior.Samples[0]))
	for i := range bad {
		bad[i] = 1e300
	}
	samples := append(bundle.Posterior.Samples[:3:3], bad)
	bundle.Posterior = gp.NewBundlePosterior("DREAM", samples)

	dir := t.TempDir()
	writeBundle(t, dir, "champion", bundle)
	s, err := New(Config{Dataset: testDataset(t), ModelsDir: dir, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postV2(t, ts, `{"days":14,"ensemble":{"members":4}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fr api.ForecastResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Quarantined {
		t.Fatal("response quarantined though 3 members survived")
	}
	e := fr.Ensemble
	if e.Survivors != 3 || len(e.Faults) != 1 {
		t.Fatalf("survivors=%d faults=%+v", e.Survivors, e.Faults)
	}
	f := e.Faults[0]
	if f.Member != 3 || (f.Reason != "nan" && f.Reason != "inf") {
		t.Fatalf("fault %+v", f)
	}
}
