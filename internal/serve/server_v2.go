package serve

import (
	"errors"
	"fmt"
	"mime"
	"net/http"
	"time"

	"gmr/internal/serve/api"
)

// The /v2 surface (DESIGN.md §15):
//
//	POST /v2/forecast — point or posterior-ensemble forecast
//	GET  /v2/models   — catalog listing (posterior sizes included)
//	POST /v2/reload   — rescan the model directory
//
// v2 hardens the transport contract that v1 (pinned to its historical
// behavior) cannot change under its compatibility guarantee:
//
//   - wrong method → 405 with an Allow header, not a generic 400
//   - POST bodies are capped at maxBodyBytes via http.MaxBytesReader and
//     must be application/json (or unlabeled)
//   - decoding is strict: unknown fields and trailing data are errors
//   - every non-2xx response body is the typed envelope
//     {"error":{"code","message","details"}} with a stable api.Code*
//
// Outcome-code metrics (gmr_serve_requests_total) keep the internal
// vocabulary shared with v1 so dashboards aggregate both surfaces.

// maxBodyBytes caps a /v2 POST body: forecast requests are a few hundred
// bytes; anything approaching the cap is hostile or broken.
const maxBodyBytes = 1 << 20

// v2Status maps an internal outcome code to the HTTP status and the
// stable wire code of the typed envelope.
func v2Status(code string) (int, string) {
	switch code {
	case "bad_request", "unknown_station":
		return http.StatusBadRequest, api.CodeBadRequest
	case "unknown_model":
		return http.StatusNotFound, api.CodeModelNotFound
	case "shed":
		return http.StatusTooManyRequests, api.CodeOverloaded
	case "draining":
		return http.StatusServiceUnavailable, api.CodeOverloaded
	case "timeout":
		return http.StatusGatewayTimeout, api.CodeDeadlineExceeded
	default:
		return http.StatusInternalServerError, api.CodeInternal
	}
}

// errorV2 writes the typed envelope and counts the outcome under the
// internal metric code.
func (s *Server) errorV2(w http.ResponseWriter, status int, wireCode, metricCode, message, details string) {
	s.m.countRequest(metricCode)
	writeJSON(w, status, api.NewError(wireCode, message, details))
}

// writeErrorV2 is writeError for /v2: the typed envelope, at the status
// and wire code v2Status maps the internal outcome code to.
func (s *Server) writeErrorV2(w http.ResponseWriter, code string, err error) {
	status, wireCode := v2Status(code)
	s.errorV2(w, status, wireCode, code, err.Error(), "")
}

// jsonContentType accepts application/json (any parameters) or an
// unlabeled body.
func jsonContentType(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json"
}

func (s *Server) handleForecastV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.errorV2(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "bad_request",
			fmt.Sprintf("method %s not allowed", r.Method), "POST /v2/forecast")
		return
	}
	if !jsonContentType(r) {
		s.errorV2(w, http.StatusUnsupportedMediaType, api.CodeBadRequest, "bad_request",
			fmt.Sprintf("unsupported content type %q", r.Header.Get("Content-Type")),
			"send application/json")
		return
	}
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0).Seconds()) }()

	req, err := api.DecodeForecastRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.errorV2(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest, "bad_request",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), "")
			return
		}
		s.errorV2(w, http.StatusBadRequest, api.CodeBadRequest, "bad_request",
			"invalid request body", err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.writeErrorV2(w, "bad_request", err)
		return
	}
	s.serveForecast(w, r, req, "v2", s.writeErrorV2)
}

// modelsBodyV2 is the /v2 catalog listing: the v1 fields plus each
// model's retained posterior size.
func (s *Server) modelsBodyV2() api.ModelsResponse {
	cat := s.reg.Catalog()
	out := api.ModelsResponse{
		CatalogVersion: cat.version,
		LoadedAt:       cat.loadedAt.Format(time.RFC3339),
		Champion:       cat.champion,
		Models:         make([]api.ModelInfo, 0, len(cat.order)),
	}
	for _, id := range cat.order {
		m := cat.models[id]
		info := api.ModelInfo{
			ID: m.ID, File: m.File, Version: m.Version, Source: m.Source,
			Status: string(m.Status), Reason: m.Reason, Detail: m.Detail,
			Name: m.Name, TrainRMSE: m.TrainRMSE, TestRMSE: m.TestRMSE,
			ServingRMSE: m.ServingRMSE, PhyExpr: m.PhyExpr, ZooExpr: m.ZooExpr,
			Champion:         id == cat.champion,
			PosteriorSamples: m.PosteriorSize(),
		}
		if !m.SavedAt.IsZero() {
			info.SavedAt = m.SavedAt.Format(time.RFC3339)
		}
		out.Models = append(out.Models, info)
	}
	return out
}

func (s *Server) handleModelsV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.errorV2(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "bad_request",
			fmt.Sprintf("method %s not allowed", r.Method), "GET /v2/models")
		return
	}
	writeJSON(w, http.StatusOK, s.modelsBodyV2())
}

func (s *Server) handleReloadV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.errorV2(w, http.StatusMethodNotAllowed, api.CodeBadRequest, "bad_request",
			fmt.Sprintf("method %s not allowed", r.Method), "POST /v2/reload")
		return
	}
	if err := s.Reload(); err != nil {
		s.writeErrorV2(w, "internal", err)
		return
	}
	writeJSON(w, http.StatusOK, s.modelsBodyV2())
}
