package bio

import (
	"time"

	"gmr/internal/expr"
)

// This file implements the lane-batched simulation path (DESIGN.md §11): up
// to expr.Lanes parameter vectors integrate through one SegSystem
// simultaneously, with every STEP instruction dispatched once across all
// lanes instead of once per candidate. The forcing series — and therefore
// the hoisted exogenous plan — is shared; only parameters and state differ
// per lane.
//
// Per-lane semantics match the scalar loop (runOne, which a chunk of one
// member runs instead of a launch) bit for bit: the same Euler updates, the
// same clamps, the same non-finite aborts, the same per-day hook protocol.
// A lane that aborts (non-finite state) or is stopped by its hook drops out
// via swap-with-last compaction — the last active lane's register column,
// state, and member identity move into the freed slot — so the remaining
// work shrinks as candidates die. When every lane is dead the kernel
// returns early; this is how short-circuit early abandon saves work inside
// a batch.

// LaneHook observes one member of a KernelLanes call: after each
// integrated day it receives (member, t, bphy) and returns false to stop
// that member early; on a non-finite abort it is called one final time
// with the offending value (and the member stops regardless of the return
// value). member is the index into the params slice passed to
// KernelLanes, stable across launches and lane compaction.
type LaneHook func(member, t int, bphy float64) bool

// KernelLanes integrates every parameter vector in params over the plan's
// days, in chunks of up to expr.Lanes members in input order. It is the one
// way to simulate a compiled model: a chunk of one member runs the scalar
// loop, a chunk of two or more one lane launch that runs the per-candidate
// PARAM prologue and then all its members in lockstep. Either way the
// per-member values are bitwise identical. Predictions are delivered
// through hook (which must be non-nil): for each live member, per day,
// hook(member, t, bphy). onLaunch, when non-nil, observes each chunk: its
// member count, start time and wall time (the clock is read only then).
// Steady-state calls with a reused SimScratch are allocation-free.
func (s *SegSystem) KernelLanes(plan *ExogPlan, cfg SimConfig, sc *SimScratch, params [][]float64, hook LaneHook, onLaunch func(n int, start time.Time, d time.Duration)) {
	cfg = cfg.withDefaults()
	for base := 0; base < len(params); base += expr.Lanes {
		chunk := params[base:min(base+expr.Lanes, len(params))]
		var t0 time.Time
		if onLaunch != nil {
			t0 = time.Now()
		}
		if len(chunk) == 1 {
			s.runOne(plan, cfg, sc, base, chunk[0], hook)
		} else {
			s.launchLanes(plan, cfg, sc, base, chunk, hook)
		}
		if onLaunch != nil {
			onLaunch(len(chunk), t0, time.Since(t0))
		}
	}
}

// launchLanes runs one launch of 2 ≤ len(chunk) ≤ expr.Lanes members,
// reported to hook as base+lane. The PARAM segment runs once per lane;
// tail lanes of a short chunk are padded by repeating chunk[0] (they
// compute real, finite values and are never reported).
func (s *SegSystem) launchLanes(plan *ExogPlan, cfg SimConfig, sc *SimScratch, base int, chunk [][]float64, hook LaneHook) {
	const L = expr.Lanes
	prog, k := s.Prog, plan.k
	_, regs := sc.regFiles(prog.NumRegs())
	_, vars := sc.varFiles()
	for l := range sc.paramLanes {
		if l < len(chunk) {
			sc.paramLanes[l] = chunk[l]
		} else {
			sc.paramLanes[l] = chunk[0]
		}
	}
	prog.EvalParamLanes(&sc.paramLanes, regs)
	n := len(chunk)
	h := 1.0 / float64(cfg.SubSteps)

	var bphy, bzoo [L]float64
	var member [L]int
	for l := 0; l < n; l++ {
		bphy[l], bzoo[l] = cfg.Phy0, cfg.Zoo0
		member[l] = base + l
	}
	active := n
	phyLane := vars[IdxBPhy*L : IdxBPhy*L+L]
	zooLane := vars[IdxBZoo*L : IdxBZoo*L+L]
	// drop compacts lane l out of the active set: the last active lane's
	// register column, state, and member identity move into slot l. All
	// arithmetic is elementwise, so the moved lane's trajectory is
	// unperturbed; the freed tail slot keeps computing stale values that
	// are never read.
	drop := func(l int) {
		sc.LaneDrops++
		active--
		if l != active {
			prog.CopyLane(l, active, regs)
			bphy[l], bzoo[l] = bphy[active], bzoo[active]
			member[l] = member[active]
		}
	}
	var rows []float64 // the rest of the current plan block, k values per day
	for t := 0; t < plan.days; t++ {
		if k > 0 {
			if len(rows) == 0 {
				rows = plan.block(t / planBlock)
			}
			prog.LoadExogRowLanes(rows[:k], regs)
			rows = rows[k:]
		}
		prog.EvalDayLanes(regs)
		for step := 0; step < cfg.SubSteps; step++ {
			copy(phyLane, bphy[:])
			copy(zooLane, bzoo[:])
			prog.EvalStepLanes(vars, regs)
			for l := 0; l < active; l++ {
				bphy[l] += h * prog.RootLane(0, l, regs)
				bzoo[l] += h * prog.RootLane(1, l, regs)
				if bad, abort := nonFinite(bphy[l], bzoo[l]); abort {
					hook(member[l], t, bad)
					drop(l)
					l-- // the swapped-in lane still needs this substep
					continue
				}
				bphy[l] = clamp(bphy[l], cfg.ClampMin, cfg.ClampMax)
				bzoo[l] = clamp(bzoo[l], cfg.ClampMin, cfg.ClampMax)
			}
			if active == 0 {
				return
			}
		}
		for l := 0; l < active; l++ {
			if !hook(member[l], t, bphy[l]) {
				drop(l)
				l--
			}
		}
		if active == 0 {
			return
		}
	}
}
