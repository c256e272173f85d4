package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span as kept in the tracer ring.
type SpanRecord struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// TracerConfig configures NewTracer. The zero value is usable: a
// 256-entry ring and no slow-span log.
type TracerConfig struct {
	// Ring is the number of recent spans retained (default 256).
	Ring int
	// SlowThreshold, when > 0, reports every span at least this long to
	// SlowLog.
	SlowThreshold time.Duration
	// SlowLog receives slow spans (default: dropped). Must be safe for
	// concurrent use.
	SlowLog func(SpanRecord)
}

// Tracer records named spans into a bounded ring. A nil *Tracer is the
// disabled tracer: Start returns an inert Span without reading the
// clock or allocating, so instrumentation points cost ~1ns when tracing
// is off. Enabled-path recording is also allocation-free (the ring is
// pre-allocated and span names are static strings).
type Tracer struct {
	slowThresh time.Duration
	slowLog    func(SpanRecord)

	started  atomic.Int64
	recorded atomic.Int64
	slow     atomic.Int64

	mu   sync.Mutex
	ring []SpanRecord
	next int
	n    int // valid entries in ring
}

// NewTracer returns an enabled tracer. Use a nil *Tracer for the
// disabled zero-cost path.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	return &Tracer{
		slowThresh: cfg.SlowThreshold,
		slowLog:    cfg.SlowLog,
		ring:       make([]SpanRecord, cfg.Ring),
	}
}

// Span is an in-flight span handle. The zero Span (from a nil tracer) is
// inert: End is a nil-check and nothing more.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start begins a span. On a nil tracer it returns the zero Span without
// touching the clock.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	t.started.Add(1)
	return Span{t: t, name: name, start: time.Now()}
}

// End completes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.record(SpanRecord{Name: s.name, Start: s.start, Dur: time.Since(s.start)})
}

// Observe records a pre-measured duration as a completed span — for
// wait times measured by other means (queue wait, batch window) where a
// Start/End pair does not fit the control flow. Nil-safe.
func (t *Tracer) Observe(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.started.Add(1)
	t.record(SpanRecord{Name: name, Start: start, Dur: d})
}

func (t *Tracer) record(rec SpanRecord) {
	t.recorded.Add(1)
	if t.slowThresh > 0 && rec.Dur >= t.slowThresh {
		t.slow.Add(1)
		if t.slowLog != nil {
			t.slowLog(rec)
		}
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first. Nil-safe (returns
// nil).
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := (t.next - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Stats returns the lifetime started/recorded/slow span counts.
// Nil-safe (all zero).
func (t *Tracer) Stats() (started, recorded, slow int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.started.Load(), t.recorded.Load(), t.slow.Load()
}

// RegisterMetrics exposes the tracer's own span counters on a registry
// so the scrape shows whether tracing is live. Nil-safe no-op on a nil
// tracer or registry.
func (t *Tracer) RegisterMetrics(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("gmr_obs_spans_started_total", "Spans started.", nil,
		func() float64 { s, _, _ := t.Stats(); return float64(s) })
	r.CounterFunc("gmr_obs_spans_recorded_total", "Spans recorded into the ring.", nil,
		func() float64 { _, rec, _ := t.Stats(); return float64(rec) })
	r.CounterFunc("gmr_obs_spans_slow_total", "Recorded spans over the slow threshold.", nil,
		func() float64 { _, _, sl := t.Stats(); return float64(sl) })
}

// ServeHTTP serves the span ring as JSON (newest last) so binaries can
// mount the tracer at /debug/spans. Nil tracers serve an empty array.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	spans := t.Snapshot()
	if spans == nil {
		spans = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(spans)
}
