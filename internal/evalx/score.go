package evalx

import (
	"context"
	"math"
	"runtime/pprof"
	"time"

	"gmr/internal/bio"
	"gmr/internal/faultinject"
)

// Per-member scoring (Algorithm 1). The scalar simulate, EvaluateParamBatch
// and EvaluateCluster all score a simulation through one member: step folds
// each simulated day into it, finish classifies and counts the outcome.
// The lane kernel delivers bitwise-identical per-day values, so a member
// scored in a lane launch gets exactly the fitness the scalar path gives.

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

// member is the running state and outcome of one scored simulation. The
// scalar path keeps one on its stack; a lane launch keeps one per lane, so
// one hook drives every member of a KernelLanes launch.
type member struct {
	idx    int // index into the caller's out (or inds) slice
	params []float64
	poison int // fault-injected NaN step, -1 when clean
	sse    float64
	steps  int
	scd    bool // short-circuited: fitness is the extrapolated surrogate
	reason Reason

	// The outcome, set by finish (fitness already by step on a short
	// circuit).
	fitness float64
	full    bool

	// Cluster-path bookkeeping (EvaluateCluster): the member's tier-2 key
	// within evalScratch.ckeys and its fault/shard site hash, kept so the
	// commit loop can insert the simulated fitness into the tier-2 cache
	// exactly like the scalar path.
	keyOff, keyLen int
	site           uint64
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

// kernel simulates ps over ent's plan in one bio.KernelLanes call, under
// the pprof label eval_phase=step-kernel when profile labels are on.
func (e *Evaluator) kernel(ent *structEntry, ps [][]float64, sc *evalScratch, hook bio.LaneHook, onLaunch func(int, time.Time, time.Duration)) {
	if !e.opts.ProfileLabels {
		ent.seg.KernelLanes(ent.plan, e.opts.Sim, &sc.sim, ps, hook, onLaunch)
		return
	}
	pprof.Do(context.Background(), pprof.Labels("eval_phase", "step-kernel"), func(context.Context) {
		ent.seg.KernelLanes(ent.plan, e.opts.Sim, &sc.sim, ps, hook, onLaunch)
	})
}

// simulate runs one forward simulation and scores it: a one-member
// KernelLanes call (the scalar loop) for a compiled structure, the tree
// interpreter otherwise. It returns the fitness (final RMSE, or the
// extrapolated surrogate when short-circuited) and whether the evaluation
// was full.
//
// site is the deterministic fault-injection site hash of this evaluation;
// when the NaN fault class fires, one simulation step (chosen from the
// hash) is poisoned with NaN, exercising the numeric quarantine end to end.
func (e *Evaluator) simulate(ent *structEntry, params []float64, sc *evalScratch, site uint64) (float64, bool) {
	s := e.newScoring()
	m := member{params: params, poison: e.poisonStep(site)}
	if ent.seg != nil {
		// Segmented path (DESIGN.md §10): exogenous work is served from
		// the tier-1.5 plan, the parameter prologue runs once, and only
		// the state-dependent STEP segment runs per substep.
		e.planFor(ent)
		sc.laneParams = append(sc.laneParams[:0], params)
		span := e.tracer.Start("evalx.simulate")
		e.kernel(ent, sc.laneParams, sc, func(_, t int, bphy float64) bool { return m.step(&s, t, bphy) }, nil)
		span.End()
	} else {
		ent.tree.RunBuf(e.forcing, params, e.opts.Sim, &sc.sim, func(t int, bphy float64) bool { return m.step(&s, t, bphy) })
	}
	e.finish(&m)
	return m.fitness, m.full
}

// laneMember admits a tier-2 miss to a lane launch. The plan lookup is
// counted per simulated member, exactly like the scalar path's planFor
// inside simulate.
func (e *Evaluator) laneMember(ent *structEntry, idx int, params []float64, site uint64) member {
	e.planFor(ent)
	return member{idx: idx, params: params, poison: e.poisonStep(site), site: site}
}

// scoreLanes scores pending members of one structure through
// bio.KernelLanes, expr.Lanes members per launch, then finishes each member
// in order. A member that short-circuits or aborts drops out of its launch
// mid-flight (lane compaction), so UseShortCircuit saves real work inside
// batches. It returns the number of launches.
func (e *Evaluator) scoreLanes(ent *structEntry, pending []member, sc *evalScratch) int {
	s := e.newScoring()
	ps := sc.laneParams[:0]
	for i := range pending {
		ps = append(ps, pending[i].params)
	}
	sc.laneParams = ps
	hook := func(m, t int, bphy float64) bool { return pending[m].step(&s, t, bphy) }
	launches := 0
	onLaunch := func(n int, start time.Time, d time.Duration) {
		launches++
		e.ctr[cLaneBatches].Add(1)
		e.ctr[cLanesFilled].Add(int64(n))
		e.tracer.Observe("evalx.lane_batch", start, d)
	}
	dropsBefore := sc.sim.LaneDrops
	e.kernel(ent, ps, sc, hook, onLaunch)
	e.ctr[cLaneCompactions].Add(int64(sc.sim.LaneDrops - dropsBefore))
	for i := range pending {
		m := &pending[i]
		e.finish(m)
		if m.scd {
			e.ctr[cLaneShortCircuits].Add(1)
		}
	}
	return launches
}
