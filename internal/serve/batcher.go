package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gmr/internal/obs"
)

// The micro-batching executor: concurrent forecast requests are coalesced
// into lane cohorts — groups sharing a cohortKey (model version, window,
// forcing overrides) whose members differ only in per-lane parameter
// vectors — and dispatched through the SoA kernel in one launch. A cohort
// is dispatched as soon as it holds MaxBatch members or its batch window
// (BatchWindow, default 2ms, counted from the cohort's first request)
// expires, whichever comes first: the inference-server trade of a bounded
// latency tax on the first request against up-to-8× fewer kernel
// dispatches under load.
//
// Admission is a bounded queue; when it is full the request is shed
// immediately (the handler answers 429) instead of growing an unbounded
// backlog — under overload, fast rejection keeps the latency of admitted
// requests bounded. Each request carries its context: members whose
// deadline expired before dispatch are dropped from the cohort without
// simulating them.

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

	dispatch := func(c *cohort) {
		c.sent = true
		delete(pending, c.key)
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
						dispatch(c)
					}
				}
				return
			}
			if b.maxBatch <= 1 {
				// Batching disabled (MaxBatch 1, gmrd -max-batch 1): every
				// request is its own single-lane cohort, dispatched on
				// arrival through the identical execution path.
				b.cohorts <- &cohort{key: r.spec.key, reqs: []*pendingReq{r}, sent: true}
				continue
			}
			c := pending[r.spec.key]
			if c == nil {
				now := time.Now()
				c = &cohort{key: r.spec.key, created: now, deadline: now.Add(b.window)}
				pending[r.spec.key] = c
				order = append(order, c)
			}
			c.reqs = append(c.reqs, r)
			if len(c.reqs) >= b.maxBatch {
				dispatch(c)
			}
			rearm()
		case <-timer.C:
			timerSet = false
			now := time.Now()
			for len(order) > 0 && (order[0].sent || !order[0].deadline.After(now)) {
				if !order[0].sent {
					dispatch(order[0])
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
		b.runCohort(c)
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
