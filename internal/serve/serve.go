// Package serve is the forecast-serving subsystem: a model registry that
// loads deployable model bundles (and orchestrator checkpoints) from a
// directory and compiles each once through the tier-1 evaluation pipeline,
// a micro-batching executor that coalesces concurrent forecast requests
// into SoA lane cohorts, and a stdlib HTTP daemon (cmd/gmrd) in front of
// both. See DESIGN.md §12.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/obs"
	"gmr/internal/serve/api"
)

// laneWidth is the SoA kernel's lane count — the hard upper bound on
// cohort size (one kernel launch scores at most this many members).
const laneWidth = expr.Lanes

// Config configures a Server. Zero values take the documented defaults;
// the cache sizes use negative to mean "disabled" so zero can default.
type Config struct {
	// Dataset is the serving dataset: forcing series, observations, and
	// date index that forecasts are simulated against.
	Dataset *dataset.Dataset
	// SubSteps is the Euler substep count per day (default 2, matching
	// the training default — it is part of the config digest, so serving
	// with a different regime rejects bundles trained under the default).
	SubSteps int
	// ModelsDir is the registry directory of *.json bundles / *.ckpt
	// checkpoints.
	ModelsDir string

	// MaxBatch is the cohort size cap, clamped to [1, laneWidth]
	// (default laneWidth). 1 disables batching: every request is its own
	// single-lane cohort through the identical kernel path.
	MaxBatch int
	// BatchWindow is the longest a cohort waits for co-batchable
	// requests after its first member arrives (default 2ms). It is an
	// upper bound: while requests arrive further apart than the window on
	// average, a cohort goes out as soon as the queue is empty and a
	// worker is idle (batcher.go).
	BatchWindow time.Duration
	// QueueSize bounds the admission queue (default 256); a full queue
	// sheds with 429.
	QueueSize int
	// Workers is the cohort-executor pool size (default GOMAXPROCS).
	Workers int

	// CacheSize bounds the response cache in entries (default 1024,
	// negative disables).
	CacheSize int
	// PlanCacheSize bounds the exogenous-plan cache in entries (default
	// 128, negative disables).
	PlanCacheSize int

	// RequestTimeout bounds a forecast end to end, queueing included
	// (default 10s).
	RequestTimeout time.Duration

	// Obs is the observability registry the server publishes its metric
	// families on (nil = a private registry). Passing a shared registry
	// merges serving telemetry into one exposition with whatever else the
	// process runs — the "one /metrics" contract of DESIGN.md §13.
	Obs *obs.Registry
	// Tracer records serving-path spans (queue wait, batch window, kernel
	// dispatch). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Dataset == nil {
		return cfg, errors.New("serve: Config.Dataset is required")
	}
	if cfg.ModelsDir == "" {
		return cfg, errors.New("serve: Config.ModelsDir is required")
	}
	if cfg.SubSteps <= 0 {
		cfg.SubSteps = 2
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = laneWidth
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxBatch > laneWidth {
		cfg.MaxBatch = laneWidth
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = 128
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	return cfg, nil
}

// Server wires the registry, the batching executor, and the caches behind
// one forecast entry point. Construct with New, expose with Handler, shut
// down with Close.
type Server struct {
	ds         *dataset.Dataset
	consts     []bio.Constant
	paramIdx   map[string]int
	varIdx     map[string]int
	subSteps   int
	reqTimeout time.Duration
	maxBatch   int

	reg       *Registry
	bat       *batcher
	plans     *lru[cohortKey, *bio.ExogPlan]
	respCache *lru[respKey, []byte]
	m         *metricsSet
	tracer    *obs.Tracer
	scratch   sync.Pool

	draining atomic.Bool
	started  time.Time
}

// New builds the server: loads and validates the model directory (an
// unreadable directory is fatal; individual bad models are just rejected
// entries) and starts the batching executor.
func New(c Config) (*Server, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	ds := cfg.Dataset
	sim := dataset.ModelSimConfig(cfg.SubSteps, ds.ObsPhy[0], ds.ObsZoo[0])
	consts := bio.DefaultConstants()
	reg, err := NewRegistry(cfg.ModelsDir, consts, ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ds:         ds,
		consts:     consts,
		paramIdx:   bio.ParamIndex(consts),
		varIdx:     bio.VarIndex(),
		subSteps:   cfg.SubSteps,
		reqTimeout: cfg.RequestTimeout,
		maxBatch:   cfg.MaxBatch,
		reg:        reg,
		plans:      newLRU[cohortKey, *bio.ExogPlan](cfg.PlanCacheSize),
		respCache:  newLRU[respKey, []byte](cfg.CacheSize),
		m:          newMetricsSet(cfg.Obs),
		tracer:     cfg.Tracer,
		started:    time.Now(),
	}
	s.scratch.New = func() any { return &bio.SimScratch{} }
	s.bat = newBatcher(cfg.MaxBatch, cfg.QueueSize, cfg.Workers, cfg.BatchWindow,
		s.execCohort, s.m, s.tracer)
	s.registerObs()
	return s, nil
}

// Registry exposes the model registry (for listings and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Reload rescans the model directory and swaps in a fresh catalog.
func (s *Server) Reload() error { return s.reg.Reload() }

// BeginDrain flips readiness off (load balancers stop routing here) while
// in-flight and already-admitted requests keep completing.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains the executor: new submissions are refused, queued cohorts
// are dispatched immediately, and Close returns once every worker has
// finished. Safe to call more than once.
func (s *Server) Close() {
	s.draining.Store(true)
	s.bat.close()
}

// Forecast resolves, executes, and packages one forecast request — the
// programmatic entry point the HTTP handler (and the in-process benchmark
// harness) sits on. The returned code classifies failures for transport
// mapping: "bad_request", "unknown_model", "unknown_station", "shed",
// "draining", "timeout", "internal"; "" means success.
func (s *Server) Forecast(ctx context.Context, req *ForecastRequest) (*ForecastResponse, string, error) {
	spec, code, err := s.resolve(req)
	if err != nil {
		return nil, code, err
	}
	return s.execute(ctx, spec)
}

// execute runs a resolved spec through the batching executor. Split from
// Forecast so the HTTP handler can interpose the response cache between
// resolution and execution.
func (s *Server) execute(ctx context.Context, spec *execSpec) (*ForecastResponse, string, error) {
	ctx, cancel := context.WithTimeout(ctx, s.reqTimeout)
	defer cancel()

	pr := &pendingReq{ctx: ctx, spec: spec, resp: make(chan execResult, 1)}
	if err := s.bat.submit(pr); err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			return nil, "shed", err
		default:
			return nil, "draining", err
		}
	}
	select {
	case res := <-pr.resp:
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
				return nil, "timeout", res.err
			}
			return nil, "internal", res.err
		}
		return s.packageResponse(spec, res), "", nil
	case <-ctx.Done():
		return nil, "timeout", fmt.Errorf("forecast timed out after %s (queued or executing)", s.reqTimeout)
	}
}

// packageResponse builds the wire response from an executed spec. Point
// forecasts carry the member's trajectory; ensemble forecasts carry the
// survivors' mean as Predictions plus the band block — with an empty
// Predictions series when every member diverged (the response is then
// flagged quarantined with the first fault's reason).
func (s *Server) packageResponse(spec *execSpec, res execResult) *ForecastResponse {
	resp := &ForecastResponse{
		Model:       spec.model.ID,
		Version:     spec.model.Version,
		Station:     spec.key.station,
		Start:       spec.key.start,
		StartDate:   s.ds.Dates[spec.key.start],
		Days:        spec.key.days,
		Predictions: res.preds,
		Quarantined: res.quarantined,
		Reason:      res.reason,
		Died:        res.died,
	}
	if res.ens != nil {
		er := &api.EnsembleResult{
			Members:         len(spec.ens.members),
			PosteriorDigest: spec.model.posteriorDigest,
		}
		for _, f := range res.ens.run.Faults {
			er.Faults = append(er.Faults, api.MemberFault{Member: f.Member, Reason: f.Reason, Day: f.Day})
		}
		if red := res.ens.red; red != nil {
			er.Survivors = red.Survivors
			er.Bands = make(map[string][]float64, len(red.Quantiles))
			for i, q := range red.Quantiles {
				er.Bands[api.BandName(q)] = red.Bands[i]
			}
			er.Spread = red.Spread
			resp.Predictions = red.Mean
		} else {
			resp.Predictions = []float64{}
		}
		resp.Ensemble = er
	}
	return resp
}

// respKeyFor is the response-cache key of a resolved request: the cohort
// key (ensemble digest included), the parameter-override digest, and the
// wire version ("v1"/"v2") — the two surfaces serialize through the same
// DTOs today, but the salt guarantees a future divergence can never serve
// one version's bytes to the other.
func respKeyFor(req *ForecastRequest, spec *execSpec, wire string) respKey {
	return respKey{cohortKey: spec.key, paramDigest: overridesDigest(req.Params), wire: wire}
}
