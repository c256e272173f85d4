package evalx

import (
	"math"
	"time"

	"gmr/internal/faultinject"
	"gmr/internal/gp"
)

// Per-member scoring (Algorithm 1). Every simulated member of every entry
// point is scored the same way: step folds each simulated day into its
// member, finish classifies and counts the outcome. A lane launch delivers
// the scalar loop's per-day values bit for bit, so a member's fitness does
// not depend on the chunk it ran in.

// minFrac is the fraction of fitness cases that must be simulated before
// short-circuiting may trigger: the running RMSE over the first few days is
// dominated by the spin-up transient and is a noisy estimate of the final
// fitness.
const minFrac = 0.1

// scoring is Algorithm 1's per-call context, shared by every member scored
// in one call.
type scoring struct {
	obs []float64
	// best is the batch-frozen reference; +Inf (always, when
	// short-circuiting is off) disables the short circuit.
	best      float64
	threshold float64
	minSteps  int // the minFrac gate, in fitness cases
}

func (e *Evaluator) newScoring() scoring {
	s := scoring{
		obs:       e.obs,
		best:      math.Inf(1),
		threshold: e.opts.Threshold,
		minSteps:  int(minFrac * float64(len(e.obs))),
	}
	if e.opts.UseShortCircuit {
		s.best = math.Float64frombits(e.frozenBits.Load())
	}
	return s
}

// member is one member of a pipeline call (see run): its input, its
// admission record and its running state and outcome. A lane launch keeps
// one per lane, so one hook drives every member of a KernelLanes call.
type member struct {
	ind    *gp.Individual // the member's individual, which the commit writes
	params []float64
	ent    *structEntry // the entry that simulates it, set on admission
	site   uint64       // fault-injection and tier-2 shard site hash
	// keyOff and keyLen locate a simulated member's tier-2 key within
	// evalScratch.keys.
	keyOff, keyLen int

	poison int // fault-injected NaN step, -1 when clean
	sse    float64
	steps  int
	scd    bool // short-circuited: fitness is the extrapolated surrogate
	reason Reason

	// The outcome: a cache hit's or a quarantine's on admission, else set
	// by finish (fitness already by step on a short circuit).
	fitness float64
	full    bool
}

// step folds day t's simulated phytoplankton biomass into m and reports
// whether the simulation should go on. It applies the injected NaN poison,
// stops on a non-finite state, accumulates the SSE, and short-circuits once
// minFrac of the cases are in and the running RMSE — Algorithm 1's
// EXTRAPOLATE, taken as the estimate of the final fitness — cannot beat the
// reference.
func (m *member) step(s *scoring, t int, bphy float64) bool {
	if t == m.poison {
		bphy = math.NaN()
	}
	if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
		m.sse = math.Inf(1)
		m.steps = t + 1
		if math.IsNaN(bphy) {
			m.reason = ReasonNaN
		} else {
			m.reason = ReasonInf
		}
		return false
	}
	d := bphy - s.obs[t]
	m.sse += d * d
	m.steps = t + 1
	if math.IsInf(s.best, 1) || t+1 < s.minSteps {
		return true
	}
	fitness := math.Sqrt(m.sse / float64(t+1))
	if fitness > s.best*s.threshold && fitness > s.best {
		m.fitness, m.scd = fitness, true
		return false // short circuit (a lane compacts away)
	}
	return true
}

// finish classifies a scored member — short-circuited, quarantined, or a
// full RMSE — and folds it into the counters and the pending
// short-circuit reference.
func (e *Evaluator) finish(m *member) {
	n := len(e.obs)
	switch {
	case m.scd:
		m.full = false
	case math.IsInf(m.sse, 1) || m.steps == 0 || m.steps < n:
		// Non-finite state or an early abort: a full evaluation of an
		// invalid model. Classify unlabeled aborts (the simulator stopped
		// before the per-day hook could see the bad value) as NaN
		// quarantines.
		if m.reason == ReasonOK && (math.IsInf(m.sse, 1) || m.steps > 0) {
			m.reason = ReasonNaN
		}
		m.fitness, m.full = math.Inf(1), true
	default:
		m.fitness, m.full = math.Sqrt(m.sse/float64(n)), true
	}
	e.ctr.quarantineCount(m.reason)
	e.ctr[cStepsEvaluated].Add(int64(m.steps))
	if !m.full {
		e.ctr[cShortCircuits].Add(1)
		return
	}
	e.ctr[cFullEvals].Add(1)
	e.batchMu.Lock()
	if m.fitness < e.pendingBest {
		e.pendingBest = m.fitness
	}
	e.batchMu.Unlock()
}

// poisonStep is the simulation step the NaN fault class poisons at site
// hash h, or -1 when it does not fire.
func (e *Evaluator) poisonStep(h uint64) int {
	if n := len(e.obs); n > 0 && e.opts.Faults.Hit(faultinject.NaN, h) {
		return int(h % uint64(n))
	}
	return -1
}

// score simulates the admitted misses ms[miss], which share one structure
// entry, and finishes each in input order: one KernelLanes call for a
// compiled entry (exogenous work served from its tier-1.5 plan),
// System.RunBuf per member for a tree entry (the Fig 10 "no RC" baseline).
// A member that short-circuits or aborts drops out of its lane launch
// mid-flight (lane compaction), so UseShortCircuit saves real work.
//
// Only a chunk of two or more members is a lane launch: the lane counters
// (and, under the population policy, the pop_ lane counters) and the
// evalx.lane_batch span count those; a one-member chunk runs the scalar
// loop and is recorded as an evalx.simulate span.
func (e *Evaluator) score(ms []member, miss []int, pol policy, sc *evalScratch) {
	ent, s := ms[miss[0]].ent, e.newScoring()
	if ent.seg == nil {
		for _, i := range miss {
			m := &ms[i]
			ent.tree.RunBuf(e.forcing, m.params, e.opts.Sim, &sc.sim, func(t int, bphy float64) bool { return m.step(&s, t, bphy) })
			e.finish(m)
		}
		return
	}
	ps := sc.params[:0]
	for _, i := range miss {
		e.planFor(ent) // counted per simulated member
		ps = append(ps, ms[i].params)
	}
	sc.params = ps
	done, drops := 0, sc.sim.LaneDrops
	onLaunch := func(n int, start time.Time, d time.Duration) {
		chunk := miss[done : done+n]
		done += n
		dropped := sc.sim.LaneDrops - drops
		drops = sc.sim.LaneDrops
		if n == 1 {
			e.tracer.Observe("evalx.simulate", start, d)
			return
		}
		e.tracer.Observe("evalx.lane_batch", start, d)
		e.ctr[cLaneBatches].Add(1)
		e.ctr[cLanesFilled].Add(int64(n))
		e.ctr[cLaneCompactions].Add(int64(dropped))
		for _, i := range chunk {
			if ms[i].scd {
				e.ctr[cLaneShortCircuits].Add(1)
			}
		}
		if pol == population {
			e.ctr[cPopLaneBatches].Add(1)
			e.ctr[cPopLanesFilled].Add(int64(n))
		}
	}
	ent.seg.KernelLanes(ent.plan, e.opts.Sim, &sc.sim, ps, func(j, t int, bphy float64) bool { return ms[miss[j]].step(&s, t, bphy) }, onLaunch)
	for _, i := range miss {
		e.finish(&ms[i])
	}
}
