package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	span := tr.Start("x")
	span.End()
	tr.Observe("y", time.Now(), time.Second)
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if s, r, sl := tr.Stats(); s != 0 || r != 0 || sl != 0 {
		t.Fatal("nil tracer has non-zero stats")
	}
	tr.RegisterMetrics(NewRegistry()) // must not panic
}

func TestTracerRecordsAndRingWraps(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 4})
	for i := 0; i < 6; i++ {
		sp := tr.Start("phase")
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Name != "phase" || s.Start.IsZero() || s.Dur < 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
	started, recorded, _ := tr.Stats()
	if started != 6 || recorded != 6 {
		t.Fatalf("stats started=%d recorded=%d, want 6/6", started, recorded)
	}
}

func TestTracerSlowLogAndObserve(t *testing.T) {
	var mu sync.Mutex
	var slow []SpanRecord
	tr := NewTracer(TracerConfig{
		Ring:          8,
		SlowThreshold: 10 * time.Millisecond,
		SlowLog: func(rec SpanRecord) {
			mu.Lock()
			slow = append(slow, rec)
			mu.Unlock()
		},
	})
	base := time.Now()
	tr.Observe("fast", base, time.Millisecond)
	tr.Observe("slow", base, 50*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(slow) != 1 || slow[0].Name != "slow" {
		t.Fatalf("slow log = %+v", slow)
	}
	if _, _, sl := tr.Stats(); sl != 1 {
		t.Fatalf("slow count = %d", sl)
	}
}

func TestTracerMetricsAndHTTP(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 8})
	tr.Start("a").End()
	r := NewRegistry()
	tr.RegisterMetrics(r)
	snap := r.Snapshot()
	if snap["gmr_obs_spans_started_total"] != 1 || snap["gmr_obs_spans_recorded_total"] != 1 {
		t.Fatalf("tracer metrics: %v", snap)
	}

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	var spans []SpanRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil || len(spans) != 1 {
		t.Fatalf("spans endpoint: %v %s", err, rec.Body.String())
	}

	// The registry handler serves a valid exposition.
	rec2 := httptest.NewRecorder()
	r.ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec2.Body.String(), "gmr_obs_spans_started_total 1") {
		t.Fatalf("registry handler: %s", rec2.Body.String())
	}
	if err := ValidateExposition(rec2.Body.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Nil tracer serves an empty JSON array, not a panic.
	var nilT *Tracer
	rec3 := httptest.NewRecorder()
	nilT.ServeHTTP(rec3, httptest.NewRequest("GET", "/debug/spans", nil))
	if strings.TrimSpace(rec3.Body.String()) != "[]" {
		t.Fatalf("nil tracer endpoint: %q", rec3.Body.String())
	}
}
