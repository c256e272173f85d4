package serve

import (
	"sync"

	"gmr/internal/obs"
)

// Serving telemetry, exposed at /metrics in the Prometheus text
// exposition format. The metric families live on an obs.Registry — the
// unified observability plane shared with training (DESIGN.md §13) —
// rather than a bespoke exposition writer; family names and the latency
// bucket layout predate the registry and are unchanged. Hot-path
// counters and histograms are atomic handles held here; instantaneous
// values (queue depth, lane fill, cache sizes, catalog state) are
// scrape-time callbacks registered in registerObs.
//
// Registration is get-or-create on the registry, which is what fixes
// the historical double-reporting of evalx snapshot counters across hot
// reloads: the registry is the single owner of every series, and a
// component that restarts or reloads re-registers over the same series
// instead of appending a second copy to the exposition.

// metricsSet is the server's handle block for hot-path metrics.
type metricsSet struct {
	reg *obs.Registry

	mu       sync.Mutex
	requests map[string]*obs.Counter // gmr_serve_requests_total by outcome code

	laneBatches     *obs.Counter
	laneMembers     *obs.Counter
	laneCompactions *obs.Counter
	deadlineDrops   *obs.Counter
	panics          *obs.Counter
	dispatches      [numDispatchReasons]*obs.Counter

	latency   *obs.Histogram // end-to-end forecast latency (v1 and v2)
	queueWait *obs.Histogram // admission → dispatch, per executed member
	batchWait *obs.Histogram // cohort first arrival → dispatch
	kernel    *obs.Histogram // lane-kernel execution per launch

	ensembleSize      *obs.Histogram // members per ensemble forecast
	memberQuarantines *obs.Counter   // ensemble members quarantined mid-window
	band              *obs.Histogram // quantile-band reduction per ensemble
}

// Why a cohort left the batcher (batcher.go), the reason label of
// gmr_serve_cohort_dispatches_total.
const (
	dispatchFull   = iota // MaxBatch members (every request at MaxBatch 1)
	dispatchIdle          // no partner due and a worker idle
	dispatchWindow        // batch window expired
	dispatchDrain         // flushed by close
	numDispatchReasons
)

var dispatchReasons = [numDispatchReasons]string{"full", "idle", "window", "drain"}

func newMetricsSet(r *obs.Registry) *metricsSet {
	if r == nil {
		r = obs.NewRegistry()
	}
	m := &metricsSet{
		reg:      r,
		requests: map[string]*obs.Counter{},
		laneBatches: r.Counter("gmr_serve_lane_batches_total",
			"Lane-kernel launches by the batching executor.", nil),
		laneMembers: r.Counter("gmr_serve_lane_members_total",
			"Members carried by lane-kernel launches.", nil),
		laneCompactions: r.Counter("gmr_serve_lane_compactions_total",
			"Lanes compacted away mid-launch (non-finite aborts and early stops).", nil),
		deadlineDrops: r.Counter("gmr_serve_deadline_drops_total",
			"Members dropped before dispatch (deadline expired while queued).", nil),
		panics: r.Counter("gmr_serve_panics_total",
			"Recovered request/cohort panics.", nil),
		latency: r.Histogram("gmr_serve_request_seconds",
			"End-to-end forecast latency.", nil, nil),
		queueWait: r.Histogram("gmr_serve_queue_wait_seconds",
			"Admission-to-dispatch wait per executed member.", nil, nil),
		batchWait: r.Histogram("gmr_serve_batch_wait_seconds",
			"Cohort batch window: first arrival to dispatch.", nil, nil),
		kernel: r.Histogram("gmr_serve_kernel_seconds",
			"Lane-kernel execution time per launch.", nil, nil),
		ensembleSize: r.Histogram("gmr_serve_ensemble_members",
			"Ensemble size per ensemble forecast.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, nil),
		memberQuarantines: r.Counter("gmr_serve_ensemble_member_quarantines_total",
			"Ensemble members quarantined on a non-finite state mid-window.", nil),
		band: r.Histogram("gmr_serve_band_seconds",
			"Quantile-band reduction time per ensemble forecast.", nil, nil),
	}
	for i, reason := range dispatchReasons {
		m.dispatches[i] = r.Counter("gmr_serve_cohort_dispatches_total",
			"Cohorts dispatched by the batcher, by why they left.", obs.Labels{"reason": reason})
	}
	return m
}

// countRequest counts one request outcome. Codes are an open set
// ("ok", "quarantined", "bad_request", "shed", ...), so series handles
// are created on first sight and cached.
func (m *metricsSet) countRequest(code string) {
	m.mu.Lock()
	c := m.requests[code]
	if c == nil {
		c = m.reg.Counter("gmr_serve_requests_total",
			"Forecast requests by outcome code.", obs.Labels{"code": code})
		m.requests[code] = c
	}
	m.mu.Unlock()
	c.Inc()
}

// registerObs publishes the scrape-time series: live gauges over server
// state, cache statistics, catalog composition, and the validation
// evaluator's counters. Called once from New, after the batcher exists.
func (s *Server) registerObs() {
	r := s.m.reg
	r.GaugeFunc("gmr_serve_lane_fill_ratio",
		"Mean fraction of kernel lanes carrying a request.", nil, func() float64 {
			b, members := s.m.laneBatches.Value(), s.m.laneMembers.Value()
			if b == 0 {
				return 0
			}
			return float64(members) / float64(b*laneWidth)
		})
	r.GaugeFunc("gmr_serve_queue_depth",
		"Requests waiting in the admission queue.", nil, func() float64 {
			return float64(len(s.bat.queue))
		})

	r.CounterFunc("gmr_serve_response_cache_hits_total", "", nil, func() float64 {
		h, _, _ := s.respCache.stats()
		return float64(h)
	})
	r.CounterFunc("gmr_serve_response_cache_misses_total", "", nil, func() float64 {
		_, m, _ := s.respCache.stats()
		return float64(m)
	})
	r.GaugeFunc("gmr_serve_response_cache_entries", "", nil, func() float64 {
		_, _, n := s.respCache.stats()
		return float64(n)
	})
	r.CounterFunc("gmr_serve_plan_cache_hits_total", "", nil, func() float64 {
		h, _, _ := s.plans.stats()
		return float64(h)
	})
	r.CounterFunc("gmr_serve_plan_cache_misses_total", "", nil, func() float64 {
		_, m, _ := s.plans.stats()
		return float64(m)
	})
	r.GaugeFunc("gmr_serve_plan_cache_entries", "", nil, func() float64 {
		_, _, n := s.plans.stats()
		return float64(n)
	})

	countModels := func(ready bool) float64 {
		cat := s.reg.Catalog()
		n := 0
		for _, id := range cat.order {
			if cat.models[id].Ready() == ready {
				n++
			}
		}
		return float64(n)
	}
	r.GaugeFunc("gmr_serve_models", "Catalog entries by status.",
		obs.Labels{"status": "ready"}, func() float64 { return countModels(true) })
	r.GaugeFunc("gmr_serve_models", "Catalog entries by status.",
		obs.Labels{"status": "rejected"}, func() float64 { return countModels(false) })
	r.GaugeFunc("gmr_serve_catalog_version", "", nil, func() float64 {
		return float64(s.reg.Catalog().version)
	})
	r.CounterFunc("gmr_serve_reloads_total", "", nil, func() float64 {
		return float64(s.reg.Reloads())
	})

	// The validation evaluator survives reloads (the registry reuses it
	// so unchanged models keep their compiled entries), and its series
	// callbacks read it live — one owner, one family, no double counting.
	s.reg.eval.RegisterObs(r, "gmr_serve_evalx", nil)
}
