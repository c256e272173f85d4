package serve

import (
	"context"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubExec is a batcher exec that records the size of every cohort it
// runs and answers each member. When gate is non-nil, every run first
// signals started and then waits for gate to close.
type stubExec struct {
	gate    chan struct{}
	started chan struct{}

	mu    sync.Mutex
	sizes []int
}

func (s *stubExec) exec(reqs []*pendingReq) {
	if s.gate != nil {
		s.started <- struct{}{}
		<-s.gate
	}
	s.mu.Lock()
	s.sizes = append(s.sizes, len(reqs))
	s.mu.Unlock()
	for _, r := range reqs {
		r.respond(execResult{})
	}
}

func (s *stubExec) cohortSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sizes...)
}

// newStubBatcher starts a batcher over exec with MaxBatch 8 and a
// 16-slot queue; it is closed on test cleanup.
func newStubBatcher(t *testing.T, workers int, window time.Duration, exec *stubExec) (*batcher, *metricsSet) {
	t.Helper()
	m := newMetricsSet(nil)
	b := newBatcher(laneWidth, 16, workers, window, exec.exec, m, nil)
	t.Cleanup(b.close)
	return b, m
}

// submitKey admits one request under a cohort key named key.
func submitKey(t *testing.T, b *batcher, key string) *pendingReq {
	t.Helper()
	r := &pendingReq{
		ctx:  context.Background(),
		spec: &execSpec{key: cohortKey{version: key}},
		resp: make(chan execResult, 1),
	}
	if err := b.submit(r); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return r
}

func await(t *testing.T, r *pendingReq) {
	t.Helper()
	select {
	case res := <-r.resp:
		if res.err != nil {
			t.Fatalf("member answered with %v", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("member never answered")
	}
}

// dispatchCounts reads gmr_serve_cohort_dispatches_total by reason.
func dispatchCounts(m *metricsSet) map[string]int64 {
	out := map[string]int64{}
	for i, reason := range dispatchReasons {
		if v := m.dispatches[i].Value(); v != 0 {
			out[reason] = v
		}
	}
	return out
}

func wantCohorts(t *testing.T, exec *stubExec, m *metricsSet, sizes []int, reasons map[string]int64) {
	t.Helper()
	if got := exec.cohortSizes(); !slices.Equal(got, sizes) {
		t.Fatalf("cohort sizes %v, want %v", got, sizes)
	}
	if got := dispatchCounts(m); !maps.Equal(got, reasons) {
		t.Fatalf("dispatches by reason %v, want %v", got, reasons)
	}
}

// TestBatcherSparseArrivalsRunAlone: arrivals at least a window apart
// have no partner due, so each runs alone at once, long before its 1 s
// window would end. The first of them lands on a fresh batcher, which
// counts as idle.
func TestBatcherSparseArrivalsRunAlone(t *testing.T) {
	t.Parallel()
	const window = time.Second
	exec := &stubExec{}
	b, m := newStubBatcher(t, 2, window, exec)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(window + window/10)
		}
		start := time.Now()
		await(t, submitKey(t, b, "m"))
		if d := time.Since(start); d >= window/2 {
			t.Fatalf("arrival %d answered after %v, want well under the %v window", i, d, window)
		}
	}
	wantCohorts(t, exec, m, []int{1, 1, 1}, map[string]int64{"idle": 3})
}

// TestBatcherBusyWorkerFillsCohort: with the only worker blocked, no
// cohort may leave early, so eight submissions form one full cohort.
func TestBatcherBusyWorkerFillsCohort(t *testing.T) {
	t.Parallel()
	exec := &stubExec{gate: make(chan struct{}), started: make(chan struct{}, 2)}
	b, m := newStubBatcher(t, 1, time.Hour, exec)
	first := submitKey(t, b, "m") // fresh batcher, idle worker: runs at once
	<-exec.started
	var reqs []*pendingReq
	for i := 0; i < laneWidth; i++ {
		reqs = append(reqs, submitKey(t, b, "m"))
	}
	close(exec.gate)
	await(t, first)
	for _, r := range reqs {
		await(t, r)
	}
	wantCohorts(t, exec, m, []int{1, laneWidth}, map[string]int64{"idle": 1, "full": 1})
}

// TestBatcherBackToBackArrivalsCoBatch: arrivals closer together than the
// window mean a partner is due, so even with idle workers they wait for
// the window and leave as one cohort.
func TestBatcherBackToBackArrivalsCoBatch(t *testing.T) {
	t.Parallel()
	exec := &stubExec{}
	b, m := newStubBatcher(t, 2, time.Second, exec)
	await(t, submitKey(t, b, "m"))
	var reqs []*pendingReq
	for i := 0; i < 4; i++ {
		reqs = append(reqs, submitKey(t, b, "m"))
	}
	for _, r := range reqs {
		await(t, r)
	}
	wantCohorts(t, exec, m, []int{1, 4}, map[string]int64{"idle": 1, "window": 1})
}

// TestBatcherCloseFlushesOpenCohorts: close dispatches every open cohort
// at once, oldest first, and returns after all of them ran. One worker
// runs them in dispatch order.
func TestBatcherCloseFlushesOpenCohorts(t *testing.T) {
	t.Parallel()
	exec := &stubExec{}
	b, m := newStubBatcher(t, 1, time.Hour, exec)
	await(t, submitKey(t, b, "a"))
	reqs := []*pendingReq{submitKey(t, b, "a"), submitKey(t, b, "b"), submitKey(t, b, "a")}
	b.close()
	for _, r := range reqs {
		await(t, r)
	}
	wantCohorts(t, exec, m, []int{1, 2, 1}, map[string]int64{"idle": 1, "drain": 2})
	if err := b.submit(&pendingReq{ctx: context.Background(), resp: make(chan execResult, 1)}); err != errDraining {
		t.Fatalf("submit after close: %v, want errDraining", err)
	}
}

// TestServerLoneForecastSkipsWindow: a fresh server's first forecast does
// not wait for its cohort window — here a full second.
func TestServerLoneForecastSkipsWindow(t *testing.T) {
	t.Parallel()
	s, _ := newTestServer(t, func(c *Config) { c.BatchWindow = time.Second })
	h := s.Handler()
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/forecast",
		strings.NewReader(`{"days":30,"params":{"CUA":1.5}}`)))
	if d := time.Since(start); d >= 500*time.Millisecond {
		t.Fatalf("lone forecast took %v under a 1s window", d)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := dispatchCounts(s.m); !maps.Equal(got, map[string]int64{"idle": 1}) {
		t.Fatalf("dispatches by reason %v, want one idle", got)
	}
}

// TestBatcherOnePauseKeepsBatching: once arrivals come faster than the
// window, one long pause does not switch the batcher to early dispatch —
// a gap counts as at most gapCap windows — so the next lone request
// waits out its window.
func TestBatcherOnePauseKeepsBatching(t *testing.T) {
	t.Parallel()
	const window = 100 * time.Millisecond
	exec := &stubExec{}
	b, m := newStubBatcher(t, 2, window, exec)
	await(t, submitKey(t, b, "m"))
	var reqs []*pendingReq
	for i := 0; i < 2*laneWidth; i++ {
		reqs = append(reqs, submitKey(t, b, "m"))
	}
	for _, r := range reqs {
		await(t, r)
	}
	time.Sleep(10 * window) // uncapped, this gap alone would lift the mean past the window
	await(t, submitKey(t, b, "m"))
	wantCohorts(t, exec, m, []int{1, laneWidth, laneWidth, 1}, map[string]int64{"idle": 1, "full": 2, "window": 1})
}
