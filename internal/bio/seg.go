package bio

import (
	"sync"
	"sync/atomic"

	"gmr/internal/expr"
)

// This file implements the segmented simulation path (DESIGN.md §10): both
// derivative trees are compiled together into one register program
// (expr.CompileReg) whose instructions are split by dependency into
// EXOG / PARAM / DAY / STEP segments. The forward-Euler kernel then only
// executes the STEP segment per substep; everything loop-invariant is
// hoisted:
//
//   - EXOG instructions run once per (structure, forcing series) into a
//     T×k matrix (ExogPlan), filled on demand in blocks of days, that
//     internal/evalx caches as "tier 1.5";
//   - PARAM instructions run once per parameter vector;
//   - DAY instructions run once per day (forcing is constant within a day).
//
// EXOG and DAY read no state, so the plan fill and the scalar loop run them
// on time lanes: expr.Lanes consecutive days per instruction dispatch, one
// day per lane (expr.EvalExogLanes; LoadExogRowsLanes + EvalDayLanes with
// the member's parameters in every lane). Only STEP runs scalar, reading
// its day's EXOG and DAY values out of that day's lane.
//
// KernelLanes (lanes.go) is the one entry point: a lone member runs the
// scalar loop below, two or more run on the lanes. Semantics (Euler
// stepping, clamping, non-finite abort, per-day hook and early stop) match
// the tree interpreter's System.RunBuf — the differential tests in
// seg_test.go and evalx enforce this.

// SegSystem is the compiled form of a System: one immutable register
// program with two roots (dBPhy/dt, dBZoo/dt) sharing common
// subexpressions. It carries no mutable state and is safe for concurrent
// use with per-goroutine SimScratch register files.
type SegSystem struct {
	Prog *expr.RegProgram
}

// NewSegSystem compiles both derivative trees into a shared segmented
// register program. State variables (BPhy, BZoo) feed the STEP segment; all
// other variables are treated as exogenous forcing.
func NewSegSystem(phy, zoo *expr.Node) (*SegSystem, error) {
	p, err := expr.CompileReg([]*expr.Node{phy, zoo}, func(idx int) bool {
		return idx == IdxBPhy || idx == IdxBZoo
	})
	if err != nil {
		return nil, err
	}
	return &SegSystem{Prog: p}, nil
}

// planBlock is the number of forcing days an ExogPlan fills at a time. It
// is a multiple of expr.Lanes, so a group of time lanes never straddles two
// blocks and a run stopped at day d fills ⌈(d+1)/planBlock⌉ blocks.
const planBlock = 128

const _ uint = -(planBlock % expr.Lanes) // compile error unless a multiple

// ExogPlan is the hoisted exogenous matrix for one (SegSystem, forcing
// series) pair: plan row t holds the k live-out exogenous register values
// for day t. Rows are filled on demand, planBlock days at a time, as the
// kernels reach them, so a simulation stopped early hoists only the blocks
// it simulated. Blocks below the watermark are read without locking; a
// per-plan mutex is taken only to fill the next blocks, each stored before
// the watermark that publishes it. Every block is the same pure EvalExog
// over its forcing rows, so a row's values do not depend on when or by whom
// it was filled. A plan keeps its forcing rows only until its last block is
// filled (never when k == 0). A plan is safe to share across goroutines;
// internal/evalx caches one per structure ("tier 1.5").
type ExogPlan struct {
	prog    *expr.RegProgram
	days, k int
	built   atomic.Int64 // blocks[:built] are filled
	mu      sync.Mutex   // serializes fills; guards forcing
	forcing [][]float64  // nil once every block is filled
	blocks  [][]float64
}

// fillRegs pools the lane register files that plan fills run on: a fill
// needs one only while it runs, and a cached plan may wait for its next
// block for as long as its structure stays cached.
var fillRegs = sync.Pool{New: func() any { return new([]float64) }}

// Days returns the number of forcing rows the plan covers.
func (p *ExogPlan) Days() int { return p.days }

// Width returns k, the number of hoisted exogenous registers per day.
func (p *ExogPlan) Width() int { return p.k }

// NewExogPlan returns an empty exogenous plan over the forcing series; the
// kernels fill its rows as they reach them. It evaluates nothing, and the
// forcing rows must not change while the plan is in use.
func (s *SegSystem) NewExogPlan(forcing [][]float64) *ExogPlan {
	p := &ExogPlan{prog: s.Prog, days: len(forcing), k: s.Prog.ExogWidth()}
	if p.k > 0 {
		p.forcing = forcing
		p.blocks = make([][]float64, (len(forcing)+planBlock-1)/planBlock)
	}
	return p
}

// block returns block b (rows b·planBlock onwards, k values per day),
// first filling the plan through it if the watermark has not reached it.
// The kernels fetch the next block when they have consumed the current one.
func (p *ExogPlan) block(b int) []float64 {
	if int64(b) >= p.built.Load() {
		p.fill(b)
	}
	return p.blocks[b]
}

// fill extends the watermark through block b, on time lanes. Filling the
// last block releases the forcing rows.
func (p *ExogPlan) fill(b int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	regs := fillRegs.Get().(*[]float64)
	defer fillRegs.Put(regs)
	*regs = growBuf(*regs, p.prog.LaneRegs())
	for n := int(p.built.Load()); n <= b; n++ {
		rows := p.forcing[n*planBlock : min((n+1)*planBlock, p.days)]
		blk := make([]float64, len(rows)*p.k)
		p.prog.EvalExogLanes(rows, *regs, blk)
		p.blocks[n] = blk
		p.built.Store(int64(n + 1))
		if n == len(p.blocks)-1 {
			p.forcing = nil
		}
	}
}

// runOne is KernelLanes for a chunk of one member: the scalar loop, which
// runs the member's PARAM prologue and then integrates it alone, reporting
// to hook as member under the LaneHook protocol. DAY runs on time lanes,
// expr.Lanes days per dispatch with the member's parameters in every lane,
// a group ahead of the substeps; a run that stops inside a group has
// computed the rest of its DAY values for nothing, and reads no plan block
// it would not have read day by day. An early stop (non-finite abort or a
// false hook) counts in sc.LaneDrops, as the lone lane's drop would. A
// launch computes all expr.Lanes lanes whatever it holds, so a lone member
// costs several scalar runs on the lanes (DESIGN.md §10).
func (s *SegSystem) runOne(plan *ExogPlan, cfg SimConfig, sc *SimScratch, member int, params []float64, hook LaneHook) {
	const L = expr.Lanes
	prog, k := s.Prog, plan.k
	regs, dayRegs := sc.regFiles(prog.NumRegs())
	vars, _ := sc.varFiles()
	prog.EvalParam(params, regs)
	for l := range sc.paramLanes {
		sc.paramLanes[l] = params
	}
	prog.EvalParamLanes(&sc.paramLanes, dayRegs)
	bphy, bzoo := cfg.Phy0, cfg.Zoo0
	h := 1.0 / float64(cfg.SubSteps)
	var rows []float64 // the rest of the current plan block, k values per day
	for t0 := 0; t0 < plan.days; t0 += L {
		n := min(L, plan.days-t0)
		if k > 0 {
			if len(rows) == 0 {
				rows = plan.block(t0 / planBlock)
			}
			prog.LoadExogRowsLanes(rows[:n*k], dayRegs)
			rows = rows[n*k:]
		}
		prog.EvalDayLanes(dayRegs)
		for l := 0; l < n; l++ {
			t := t0 + l
			prog.LoadStepInputs(l, dayRegs, regs)
			for step := 0; step < cfg.SubSteps; step++ {
				vars[IdxBPhy] = bphy
				vars[IdxBZoo] = bzoo
				prog.EvalStep(vars, regs)
				bphy += h * prog.Root(0, regs)
				bzoo += h * prog.Root(1, regs)
				if bad, abort := nonFinite(bphy, bzoo); abort {
					hook(member, t, bad)
					sc.LaneDrops++
					return
				}
				bphy = clamp(bphy, cfg.ClampMin, cfg.ClampMax)
				bzoo = clamp(bzoo, cfg.ClampMin, cfg.ClampMax)
			}
			if !hook(member, t, bphy) {
				sc.LaneDrops++
				return
			}
		}
	}
}

// Predict simulates the system over the forcing series under one parameter
// vector with fresh scratch and no hook: a one-member KernelLanes call over
// a throwaway exogenous plan. The returned slice is caller-owned and holds
// one prediction per integrated day, ending in NaN if the state went
// non-finite.
func (s *SegSystem) Predict(forcing [][]float64, params []float64, cfg SimConfig) []float64 {
	preds := make([]float64, 0, len(forcing))
	s.KernelLanes(s.NewExogPlan(forcing), cfg, &SimScratch{}, [][]float64{params}, func(_, _ int, bphy float64) bool {
		preds = AppendPrediction(preds, bphy)
		return true
	}, nil)
	return preds
}
