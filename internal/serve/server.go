package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gmr/internal/serve/api"
)

// The HTTP surface (stdlib net/http only):
//
//	POST /v1/forecast  — run a forecast (ForecastRequest → ForecastResponse)
//	GET  /v1/models    — catalog listing, rejected entries with reason codes
//	POST /v1/reload    — rescan the model directory (also on SIGHUP)
//	POST /v2/forecast  — point or ensemble forecast, typed error envelope
//	GET  /v2/models    — catalog listing with posterior sizes
//	POST /v2/reload    — rescan the model directory
//	GET  /healthz      — liveness (process is up)
//	GET  /readyz       — readiness (has a champion, not draining)
//	GET  /metrics      — Prometheus text exposition
//
// The v1 handlers in this file are compatibility adapters, pinned
// byte-for-byte to their pre-v2 responses (tested against golden bodies);
// the v2 handlers live in server_v2.go. Every request runs behind panic
// isolation: a handler panic answers 500 for that request and the daemon
// keeps serving.

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// statusFor maps Forecast outcome codes to HTTP statuses.
func statusFor(code string) int {
	switch code {
	case "bad_request":
		return http.StatusBadRequest
	case "unknown_model", "unknown_station":
		return http.StatusNotFound
	case "shed":
		return http.StatusTooManyRequests
	case "draining":
		return http.StatusServiceUnavailable
	case "timeout":
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code string, err error) {
	s.m.countRequest(code)
	writeJSON(w, statusFor(code), errorBody{Error: err.Error(), Code: code})
}

// Handler returns the daemon's routing table wrapped in per-request panic
// isolation. The /v1 endpoints are thin adapters over the same DTOs and
// executor as /v2, pinned byte-for-byte to their pre-v2 behavior; /v2 adds
// ensemble forecasting, strict decoding, and the typed error envelope
// (see internal/serve/api).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/forecast", s.handleForecast)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v2/forecast", s.handleForecastV2)
	mux.HandleFunc("/v2/models", s.handleModelsV2)
	mux.HandleFunc("/v2/reload", s.handleReloadV2)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.recoverMiddleware(mux)
}

// recoverMiddleware converts a handler panic into a 500 for that request
// only — the serving analogue of the evaluation pipeline's per-individual
// panic isolation (DESIGN.md §9).
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Inc()
				s.m.countRequest("panic")
				// Best-effort: if the handler already wrote, this is a no-op
				// on the status line and the client sees a truncated body.
				// v2 paths get the typed envelope; v1 keeps its historical
				// error body.
				if strings.HasPrefix(r.URL.Path, "/v2/") {
					writeJSON(w, http.StatusInternalServerError,
						api.NewError(api.CodeInternal, fmt.Sprintf("internal error: %v", p), ""))
				} else {
					writeJSON(w, http.StatusInternalServerError, errorBody{
						Error: fmt.Sprintf("internal error: %v", p), Code: "panic",
					})
				}
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, "bad_request", fmt.Errorf("POST only"))
		return
	}
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0).Seconds()) }()

	var req ForecastRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, "bad_request", fmt.Errorf("invalid request body: %v", err))
		return
	}
	// v1 predates the ensemble block; before the DTOs were shared with v2
	// this handler's lenient decode silently ignored an "ensemble" key, so
	// it must keep doing exactly that.
	req.Ensemble = nil
	s.serveForecast(w, r, &req, "v1", s.writeError)
}

// serveForecast is the tail the /v1 and /v2 forecast handlers share once a
// request is decoded: drain check, resolve, response-cache lookup, execute,
// marshal, count, write. fail writes an error in the surface's own format;
// wire salts the response-cache key, so the surfaces never share a body.
func (s *Server) serveForecast(w http.ResponseWriter, r *http.Request, req *ForecastRequest, wire string, fail func(http.ResponseWriter, string, error)) {
	if s.draining.Load() {
		fail(w, "draining", errDraining)
		return
	}
	spec, code, err := s.resolve(req)
	if err != nil {
		fail(w, code, err)
		return
	}
	key := respKeyFor(req, spec, wire)
	if body, ok := s.respCache.get(key); ok {
		s.m.countRequest("ok")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		return
	}
	resp, code, err := s.execute(r.Context(), spec)
	if err != nil {
		fail(w, code, err)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		fail(w, "internal", err)
		return
	}
	body = append(body, '\n')
	s.respCache.put(key, body)
	if resp.Quarantined {
		s.m.countRequest("quarantined")
	} else {
		s.m.countRequest("ok")
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// modelsBodyV1 is the /v1 catalog listing: the /v2 listing without the
// posterior sample counts, which omitempty then leaves out.
func (s *Server) modelsBodyV1() api.ModelsResponse {
	body := s.modelsBodyV2()
	for i := range body.Models {
		body.Models[i].PosteriorSamples = 0
	}
	return body
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, "bad_request", fmt.Errorf("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.modelsBodyV1())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, "bad_request", fmt.Errorf("POST only"))
		return
	}
	if err := s.Reload(); err != nil {
		s.writeError(w, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, s.modelsBodyV1())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.reg.Catalog().champion == "":
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no ready model")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleMetrics serves the whole obs registry: when the daemon shares a
// registry with other subsystems (training metrics, tracer counters),
// one scrape covers them all.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.reg.ServeHTTP(w, r)
}
