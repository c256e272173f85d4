package expr

import "math"

// This file adds the multi-lane, structure-of-arrays execution mode of the
// segmented register VM (DESIGN.md §11): every register becomes a block of
// Lanes float64 slots, and each instruction executes once across all lanes.
// Interpreter dispatch — the per-instruction switch and operand decoding —
// is paid once per instruction instead of once per (instruction, parameter
// vector), turning the per-substep cost of scoring L candidates from
// O(L·instrs) dispatches into O(instrs) dispatches over tight fixed-width
// inner loops.
//
// Memory layout: the lane register file is a flat []float64 of length
// NumRegs()·Lanes, register-major — regs[r·Lanes+l] is register r in lane
// l. The fixed width lets every inner loop run over a *[Lanes]float64
// array pointer, which eliminates bounds checks and lets the compiler
// unroll (and on capable targets vectorize) the elementwise arithmetic.
//
// Per-lane arithmetic is exactly the scalar instruction stream applied
// elementwise — no cross-lane operations exist — so each lane's value
// sequence is bitwise identical to a scalar execution of the same program
// with that lane's parameters. The differential tests and the
// FuzzLaneKernelVsScalar target enforce this.
//
// A lane is either a parameter vector (a cohort's members, one day at a
// time) or a day (time lanes: the state-free EXOG and DAY segments over
// Lanes consecutive days, with one parameter vector in every lane). The
// exogenous plan fills with EvalExogLanes, and the scalar loop runs DAY on
// time lanes (LoadExogRowsLanes, EvalDayLanes) before LoadStepInputs hands
// each day to its scalar substeps.

// Lanes is the lane width L of the structure-of-arrays execution mode:
// how many parameter vectors one instruction dispatch scores. Eight lanes
// fill a cache line per register block (64 bytes) and leave the unrolled
// inner loops short enough to stay in the instruction cache.
const Lanes = 8

// laneBlock returns the Lanes-wide block of values[idx·Lanes:] as a
// fixed-size array pointer, the bounds-check-free view the inner loops run
// over.
func laneBlock(values []float64, idx int) *[Lanes]float64 {
	return (*[Lanes]float64)(values[idx*Lanes:])
}

// execLanes runs one instruction stream across all lanes of a lane-major
// register file. vars backs ropLoadVar lane-wise (vars[a·Lanes+l], the
// caller's lane-strided state vector); params backs ropLoadParam with one
// parameter vector per lane (params[l][a], len(params) must be Lanes —
// callers pad short batches by repeating a live vector). Streams without
// the respective loads may pass nil.
func execLanes(code []rinstr, vars []float64, params *[Lanes][]float64, regs []float64) {
	for i := range code {
		in := &code[i]
		dst := laneBlock(regs, int(in.dst))
		switch in.op {
		case ropLoadVar:
			src := laneBlock(vars, int(in.a))
			*dst = *src
		case ropLoadParam:
			for l := 0; l < Lanes; l++ {
				dst[l] = params[l][in.a]
			}
		case ropAdd:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = a[l] + b[l]
			}
		case ropSub:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = a[l] - b[l]
			}
		case ropMul:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = a[l] * b[l]
			}
		case ropDiv:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = SafeDiv(a[l], b[l])
			}
		case ropNeg:
			a := laneBlock(regs, int(in.a))
			for l := 0; l < Lanes; l++ {
				dst[l] = -a[l]
			}
		case ropLog:
			a := laneBlock(regs, int(in.a))
			for l := 0; l < Lanes; l++ {
				dst[l] = SafeLog(a[l])
			}
		case ropExp:
			a := laneBlock(regs, int(in.a))
			for l := 0; l < Lanes; l++ {
				dst[l] = SafeExp(a[l])
			}
		case ropMin:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = math.Min(a[l], b[l])
			}
		case ropMax:
			a, b := laneBlock(regs, int(in.a)), laneBlock(regs, int(in.b))
			for l := 0; l < Lanes; l++ {
				dst[l] = math.Max(a[l], b[l])
			}
		}
	}
}

// LaneRegs returns the length of the lane-major register file required by
// the Eval*Lanes methods: NumRegs()·Lanes.
func (p *RegProgram) LaneRegs() int { return p.numRegs * Lanes }

// InitConstsLanes broadcasts the literal pool into every lane of a fresh
// lane-major register file. It must run before any lane segment executes.
func (p *RegProgram) InitConstsLanes(regs []float64) {
	for i, r := range p.constRegs {
		dst := laneBlock(regs, int(r))
		v := p.constVals[i]
		for l := 0; l < Lanes; l++ {
			dst[l] = v
		}
	}
}

// EvalParamLanes initializes the constant pool and runs the per-candidate
// parameter prologue with one parameter vector per lane. params must hold
// exactly Lanes vectors; callers batching fewer candidates pad the tail by
// repeating a live vector (the padded lanes compute real, finite values and
// are simply never read back).
func (p *RegProgram) EvalParamLanes(params *[Lanes][]float64, regs []float64) {
	p.InitConstsLanes(regs)
	execLanes(p.param, nil, params, regs)
}

// LoadExogRowLanes broadcasts one row of the hoisted exogenous matrix
// (produced by EvalExog, length ExogWidth()) into every lane of the
// exogenous registers: the forcing series is shared by all candidates, so
// one plan row feeds all lanes.
func (p *RegProgram) LoadExogRowLanes(row, regs []float64) {
	for j, r := range p.exogOut {
		dst := laneBlock(regs, int(r))
		v := row[j]
		for l := 0; l < Lanes; l++ {
			dst[l] = v
		}
	}
}

// EvalExogLanes is EvalExog on time lanes: the exogenous segment runs
// instruction-major over Lanes consecutive forcing rows at a time, one day
// per lane, and out receives the same row-major T×k matrix, bitwise. Its
// leading forcing loads gather each group's rows straight into their
// registers. regs is lane register scratch (length ≥ LaneRegs()); consts
// are initialized internally. The tail lanes of a last short group compute
// on stale values and are never read.
func (p *RegProgram) EvalExogLanes(rows [][]float64, regs, out []float64) {
	p.InitConstsLanes(regs)
	loads := 0
	for loads < len(p.exog) && p.exog[loads].op == ropLoadVar {
		loads++
	}
	k := len(p.exogOut)
	for t0 := 0; t0 < len(rows); t0 += Lanes {
		group := rows[t0:min(t0+Lanes, len(rows))]
		for _, in := range p.exog[:loads] {
			dst := laneBlock(regs, int(in.dst))
			for l, row := range group {
				dst[l] = row[in.a]
			}
		}
		execLanes(p.exog[loads:], nil, nil, regs)
		for j, r := range p.exogOut {
			src := laneBlock(regs, int(r))
			for l := range group {
				out[(t0+l)*k+j] = src[l]
			}
		}
	}
}

// LoadExogRowsLanes loads up to Lanes consecutive rows of the hoisted
// exogenous matrix (len(rows) a multiple of ExogWidth()) into the exogenous
// registers, row l into lane l: the time-lane layout in which one DAY
// dispatch serves several days of one parameter vector. Lanes past the last
// row keep stale values.
func (p *RegProgram) LoadExogRowsLanes(rows, regs []float64) {
	k := len(p.exogOut)
	for j, r := range p.exogOut {
		dst := laneBlock(regs, int(r))
		for l := 0; l*k < len(rows); l++ {
			dst[l] = rows[l*k+j]
		}
	}
}

// LoadStepInputs copies one lane's EXOG and DAY registers that STEP
// instructions or roots read into the scalar register file regs: after
// EvalDayLanes on time lanes, it hands that lane's day to the scalar
// EvalStep. regs must already hold the constants and the PARAM prologue
// (EvalParam).
func (p *RegProgram) LoadStepInputs(lane int, laneRegs, regs []float64) {
	for _, r := range p.stepIn {
		regs[r] = laneRegs[int(r)*Lanes+lane]
	}
}

// EvalDayLanes runs the per-day segment (forcing × parameter instructions,
// state-free) across all lanes. The exogenous rows (LoadExogRowLanes or
// LoadExogRowsLanes) and EvalParamLanes must have run first.
func (p *RegProgram) EvalDayLanes(regs []float64) {
	execLanes(p.day, nil, nil, regs)
}

// EvalStepLanes runs the per-substep segment across all lanes. vars is the
// lane-strided state vector (vars[idx·Lanes+l]); only state-variable
// indices are read.
func (p *RegProgram) EvalStepLanes(vars, regs []float64) {
	execLanes(p.step, vars, nil, regs)
}

// RootLane reads back the i-th root's value in one lane.
func (p *RegProgram) RootLane(i, lane int, regs []float64) float64 {
	return regs[int(p.roots[i])*Lanes+lane]
}

// CopyLane copies every register of lane src into lane dst — the column
// move behind lane compaction: when a lane's candidate drops out (early
// abandon or non-finite abort), the last active lane's column replaces it
// so the active lanes stay contiguous. Per-lane values never interact
// across lanes, so moving a column cannot perturb any other lane.
func (p *RegProgram) CopyLane(dst, src int, regs []float64) {
	if dst == src {
		return
	}
	for r := 0; r < p.numRegs; r++ {
		regs[r*Lanes+dst] = regs[r*Lanes+src]
	}
}
