package bio

import (
	"math"
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
//   - PARAM instructions run once per parameter vector (Prologue);
//   - DAY instructions run once per day (forcing is constant within a day).
//
// Semantics (Euler stepping, clamping, non-finite abort, perStep hook and
// early stop) match the tree interpreter's System.RunBuf — the
// differential tests in seg_test.go and evalx enforce this.

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

// planBlock is the number of forcing days an ExogPlan fills at a time.
const planBlock = 128

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
	mu      sync.Mutex   // serializes fills; guards forcing and regs
	forcing [][]float64  // nil once every block is filled
	regs    []float64
	blocks  [][]float64
}

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

// fill extends the watermark through block b. Filling the last block
// releases the forcing rows and the register file.
func (p *ExogPlan) fill(b int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := int(p.built.Load()); n <= b; n++ {
		if p.regs == nil {
			p.regs = make([]float64, p.prog.NumRegs())
		}
		rows := p.forcing[n*planBlock : min((n+1)*planBlock, p.days)]
		blk := make([]float64, len(rows)*p.k)
		p.prog.EvalExog(rows, p.regs, blk)
		p.blocks[n] = blk
		p.built.Store(int64(n + 1))
		if n == len(p.blocks)-1 {
			p.forcing, p.regs = nil, nil
		}
	}
}

// Prologue sizes the scratch register file and runs the per-candidate
// parameter segment (constant pool + parameter loads + forcing-free
// arithmetic). It must be called once per parameter vector before Kernel.
func (s *SegSystem) Prologue(params []float64, sc *SimScratch) {
	sc.regs = growBuf(sc.regs, s.Prog.NumRegs())
	s.Prog.EvalParam(params, sc.regs)
}

// Kernel integrates the system over the plan's days using the precomputed
// exogenous matrix. Prologue must have run first with the same scratch.
// Semantics (Euler stepping, clamping, non-finite abort, perStep hook and
// early stop) match System.RunBuf; the returned slice aliases sc.
// Steady-state calls with a reused SimScratch are allocation-free.
func (s *SegSystem) Kernel(plan *ExogPlan, cfg SimConfig, sc *SimScratch, perStep func(t int, bphy float64) bool) []float64 {
	cfg = cfg.withDefaults()
	preds := sc.preds[:0]
	bphy, bzoo := cfg.Phy0, cfg.Zoo0
	sc.vars = growBuf(sc.vars, NumVars)
	vars, regs := sc.vars, sc.regs
	prog, k := s.Prog, plan.k
	h := 1.0 / float64(cfg.SubSteps)
	var rows []float64 // the rest of the current plan block, k values per day
	for t := 0; t < plan.days; t++ {
		if k > 0 {
			if len(rows) == 0 {
				rows = plan.block(t / planBlock)
			}
			prog.LoadExogRow(rows[:k], regs)
			rows = rows[k:]
		}
		prog.EvalDay(regs)
		for step := 0; step < cfg.SubSteps; step++ {
			vars[IdxBPhy] = bphy
			vars[IdxBZoo] = bzoo
			prog.EvalStep(vars, regs)
			dPhy := prog.Root(0, regs)
			dZoo := prog.Root(1, regs)
			bphy += h * dPhy
			bzoo += h * dZoo
			if bad, abort := nonFinite(bphy, bzoo); abort {
				preds = append(preds, math.NaN())
				sc.preds = preds
				if perStep != nil {
					perStep(t, bad)
				}
				return preds
			}
			bphy = clamp(bphy, cfg.ClampMin, cfg.ClampMax)
			bzoo = clamp(bzoo, cfg.ClampMin, cfg.ClampMax)
		}
		preds = append(preds, bphy)
		if perStep != nil && !perStep(t, bphy) {
			sc.preds = preds
			return preds
		}
	}
	sc.preds = preds
	return preds
}

// Run is the convenience entry point: it opens a throwaway exogenous plan,
// runs the prologue, and invokes the kernel. Hot paths (internal/evalx)
// cache the plan and call Prologue+Kernel directly instead.
func (s *SegSystem) Run(forcing [][]float64, params []float64, cfg SimConfig, sc *SimScratch, perStep func(t int, bphy float64) bool) []float64 {
	plan := s.NewExogPlan(forcing)
	s.Prologue(params, sc)
	return s.Kernel(plan, cfg, sc, perStep)
}

// Predict is Run with fresh scratch and no hook; the returned slice is
// caller-owned.
func (s *SegSystem) Predict(forcing [][]float64, params []float64, cfg SimConfig) []float64 {
	preds := s.Run(forcing, params, cfg, &SimScratch{}, nil)
	return append([]float64(nil), preds...)
}
