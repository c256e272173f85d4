package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gmr/internal/obs"
)

// The micro-batching executor: concurrent forecast requests are coalesced
// into lane cohorts — groups sharing a cohortKey (model version, window,
// forcing overrides) whose members differ only in per-lane parameter
// vectors — and dispatched through the SoA kernel in one launch. A cohort
// leaves the dispatcher for one of four reasons, each counted in
// gmr_serve_cohort_dispatches_total{reason}:
//
//   - full: it holds MaxBatch members (with MaxBatch 1, every request);
//   - idle: no partner is due, so waiting would buy nothing. After each
//     admission the open cohorts go out oldest first while the admission
//     queue is empty, a worker is idle, and the running mean of the gaps
//     between admissions is at least the batch window;
//   - window: its batch window (BatchWindow, default 2ms, counted from the
//     cohort's first request) expired;
//   - drain: the batcher is closing.
//
// The window is thus an upper bound, not a fixed tax: a lone request at
// low load runs at once, while under load — gaps shorter than the window —
// cohorts keep waiting to fill their lanes, the inference-server trade of
// a bounded wait against up-to-8× fewer kernel dispatches. Dispatching on
// the first two conditions alone (queue empty, worker idle) launched 1–3
// member lanes at every rate, and a short lane launch costs several
// scalar runs; the rate test keeps the fill (DESIGN.md §12).
//
// Admission is a bounded queue; when it is full the request is shed
// immediately (the handler answers 429) instead of growing an unbounded
// backlog — under overload, fast rejection keeps the latency of admitted
// requests bounded. Each request carries its context: members whose
// deadline expired before dispatch are dropped from the cohort without
// simulating them.

// The dispatcher's running mean of the gaps between admissions gives the
// newest gap a weight of 1/gapWeight, and counts a gap as at most gapCap
// windows. With the cap one pause (a GC, the dispatcher descheduled)
// moves the mean by at most half a window, so it takes three long gaps in
// a row to switch a busy server to early dispatch, and after a quiet
// spell about ten admissions switch it back. Without it, the pauses
// between the benchmark's load slices sent the first members of each
// slice out alone and cost 0.06–0.09 of the lane fill at 3000 requests/s.
const (
	gapWeight = 8
	gapCap    = 4
)

var (
	// errOverloaded: the admission queue is full (handler → 429).
	errOverloaded = errors.New("serve: admission queue full")
	// errDraining: the server is shutting down (handler → 503).
	errDraining = errors.New("serve: draining")
)

// pendingReq is one admitted request waiting for (or in) a cohort.
type pendingReq struct {
	ctx  context.Context
	spec *execSpec
	resp chan execResult
	enq  time.Time // admission time, for the queue-wait histogram
	done bool      // set by respond; guards double-sends on panic recovery
}

// respond delivers the result exactly once (the channel has capacity 1 and
// a unique consumer, so this never blocks).
func (r *pendingReq) respond(res execResult) {
	if r.done {
		return
	}
	r.done = true
	r.resp <- res
}

// cohort accumulates compatible requests until dispatch.
type cohort struct {
	key      cohortKey
	reqs     []*pendingReq
	created  time.Time // first arrival, for the batch-wait histogram
	deadline time.Time
	sent     bool // already dispatched (guards the flush order queue)
}

// batcher owns the admission queue, the dispatcher goroutine, and the
// worker pool that executes cohorts.
type batcher struct {
	maxBatch int
	window   time.Duration
	exec     func([]*pendingReq)
	m        *metricsSet
	tracer   *obs.Tracer

	queue   chan *pendingReq
	cohorts chan *cohort
	idle    atomic.Int32 // workers not running a cohort

	mu     sync.RWMutex // guards closed vs. sends on queue
	closed bool
	wg     sync.WaitGroup
}

// newBatcher starts the dispatcher and workers workers. exec runs one
// cohort's live members; m observes drops, queue waits, and batch
// windows; tracer (nil-safe) records the corresponding spans.
func newBatcher(maxBatch, queueSize, workers int, window time.Duration, exec func([]*pendingReq), m *metricsSet, tracer *obs.Tracer) *batcher {
	b := &batcher{
		maxBatch: maxBatch,
		window:   window,
		exec:     exec,
		m:        m,
		tracer:   tracer,
		queue:    make(chan *pendingReq, queueSize),
		cohorts:  make(chan *cohort, workers*2),
	}
	// Workers count as idle from the start, before their goroutines run,
	// so a fresh server's first request finds one.
	b.idle.Store(int32(workers))
	b.wg.Add(1 + workers)
	go b.dispatchLoop()
	for i := 0; i < workers; i++ {
		go b.worker()
	}
	return b
}

// submit admits a request or sheds it. Never blocks: a full queue is an
// overload signal, not a wait.
func (b *batcher) submit(r *pendingReq) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return errDraining
	}
	r.enq = time.Now()
	select {
	case b.queue <- r:
		return nil
	default:
		return errOverloaded
	}
}

// close drains the batcher: no new admissions, pending cohorts are
// dispatched immediately, and all workers finish before close returns.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()
	b.wg.Wait()
}

// dispatchLoop is the single goroutine that owns the pending-cohort table.
// Cohort deadlines are first-arrival + window, so cohorts expire in
// creation order and a FIFO of open cohorts plus one timer suffices.
func (b *batcher) dispatchLoop() {
	defer b.wg.Done()
	defer close(b.cohorts)

	pending := map[cohortKey]*cohort{}
	var order []*cohort // open cohorts in deadline order
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerSet := false
	defer timer.Stop()

	// The mean starts at the window: a fresh server counts as idle, so
	// its first request runs at once.
	meanGap := b.window
	var last time.Time

	dispatch := func(c *cohort, why int) {
		c.sent = true
		delete(pending, c.key)
		b.m.dispatches[why].Inc()
		b.cohorts <- c
	}
	rearm := func() {
		for len(order) > 0 && order[0].sent {
			order = order[1:]
		}
		if timerSet {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timerSet = false
		}
		if len(order) > 0 {
			timer.Reset(time.Until(order[0].deadline))
			timerSet = true
		}
	}

	for {
		select {
		case r, ok := <-b.queue:
			if !ok {
				for _, c := range order {
					if !c.sent {
						dispatch(c, dispatchDrain)
					}
				}
				return
			}
			if b.maxBatch <= 1 {
				// Batching disabled (MaxBatch 1, gmrd -max-batch 1): every
				// request is its own single-lane cohort, dispatched on
				// arrival through the identical execution path.
				b.m.dispatches[dispatchFull].Inc()
				b.cohorts <- &cohort{key: r.spec.key, reqs: []*pendingReq{r}, sent: true}
				continue
			}
			now := time.Now()
			if !last.IsZero() {
				meanGap += (min(now.Sub(last), gapCap*b.window) - meanGap) / gapWeight
			}
			last = now
			c := pending[r.spec.key]
			if c == nil {
				c = &cohort{key: r.spec.key, created: now, deadline: now.Add(b.window)}
				pending[r.spec.key] = c
				order = append(order, c)
			}
			c.reqs = append(c.reqs, r)
			if len(c.reqs) >= b.maxBatch {
				dispatch(c, dispatchFull)
			}
			// No partner is due: nothing is queued and arrivals are
			// sparser than the window. Send what is open while a worker
			// is free to take it (cohorts already sent claim one each).
			if len(b.queue) == 0 && meanGap >= b.window {
				for _, c := range order {
					if int(b.idle.Load()) <= len(b.cohorts) {
						break
					}
					if !c.sent {
						dispatch(c, dispatchIdle)
					}
				}
			}
			rearm()
		case <-timer.C:
			timerSet = false
			now := time.Now()
			for len(order) > 0 && (order[0].sent || !order[0].deadline.After(now)) {
				if !order[0].sent {
					dispatch(order[0], dispatchWindow)
				}
				order = order[1:]
			}
			rearm()
		}
	}
}

// worker executes dispatched cohorts with per-cohort panic isolation: a
// panicking execution (hostile model arithmetic, injected faults) answers
// every unanswered member with an error instead of taking the daemon down
// — the recovery discipline of the evaluation pipeline (DESIGN.md §9)
// applied to the serving path.
func (b *batcher) worker() {
	defer b.wg.Done()
	for c := range b.cohorts {
		b.idle.Add(-1)
		b.runCohort(c)
		b.idle.Add(1)
	}
}

func (b *batcher) runCohort(c *cohort) {
	defer func() {
		if p := recover(); p != nil {
			for _, r := range c.reqs {
				r.respond(execResult{err: fmt.Errorf("forecast execution panicked: %v", p)})
			}
		}
	}()
	// Drop members whose deadline already expired; their handlers have
	// answered 503 and nobody would read the result.
	live := c.reqs[:0]
	dropped := 0
	for _, r := range c.reqs {
		if r.ctx.Err() != nil {
			r.respond(execResult{err: r.ctx.Err()})
			dropped++
			continue
		}
		live = append(live, r)
	}
	c.reqs = live
	if dropped > 0 && b.m != nil {
		b.m.deadlineDrops.Add(int64(dropped))
	}
	if len(c.reqs) == 0 {
		return
	}
	// Observe the waits at the dispatch edge: per-member queue wait
	// (admission → here) and, for windowed cohorts, the batch window the
	// first member paid (creation → here).
	now := time.Now()
	if b.m != nil {
		if !c.created.IsZero() {
			d := now.Sub(c.created)
			b.m.batchWait.Observe(d.Seconds())
			b.tracer.Observe("serve.batch_wait", c.created, d)
		}
		for _, r := range c.reqs {
			if !r.enq.IsZero() {
				d := now.Sub(r.enq)
				b.m.queueWait.Observe(d.Seconds())
				b.tracer.Observe("serve.queue_wait", r.enq, d)
			}
		}
	}
	b.exec(c.reqs)
}
