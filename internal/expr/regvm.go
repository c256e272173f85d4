package expr

import (
	"fmt"
	"math"
)

// This file implements "runtime compilation" (DESIGN.md §3, §10): the
// register-based segmented VM every compiled simulation runs on. The
// paper's system emits C++ and dlopens it; compiling to a register program
// is the portable stdlib-only equivalent that removes the same
// per-evaluation tree-walking overhead. A bound
// tree (or a set of trees sharing subexpressions, e.g. the two derivative
// expressions of a biological process) is compiled into a linear SSA-style
// instruction stream over a flat register file, with common subexpressions
// collapsed to a single register by value numbering.
//
// Every instruction is classified at compile time by what its value depends
// on — forcing (exogenous) variables, constant parameters, state variables —
// and placed into one of four segments, hoisting loop-invariant work out of
// the innermost Euler substep loop:
//
//	EXOG  depends only on forcing variables → evaluated once per
//	      (structure, dataset) into a T×k matrix (the tier-1.5 exogenous
//	      plan of internal/evalx), where k is the number of live-out
//	      exogenous registers.
//	PARAM depends only on parameters → a per-candidate prologue executed
//	      once per parameter vector.
//	DAY   depends on forcing AND parameters but not on state → executed
//	      once per day (forcing is constant within a day, so these are
//	      invariant across substeps).
//	STEP  depends on state → the only instructions left inside the
//	      per-substep kernel.
//
// Literal-only subexpressions are folded at compile time with the same
// guarded operators the tree interpreter uses, so the interpreter and the
// register program agree on well-defined inputs; the differential fuzz
// target enforces this.

// ropcode enumerates register-VM operations. Loads read an external vector
// (vars or params); arithmetic reads and writes registers only.
type ropcode uint8

const (
	ropLoadVar   ropcode = iota // regs[dst] = vars[a]
	ropLoadParam                // regs[dst] = params[a]
	ropAdd                      // regs[dst] = regs[a] + regs[b]
	ropSub                      // regs[dst] = regs[a] - regs[b]
	ropMul                      // regs[dst] = regs[a] * regs[b]
	ropDiv                      // regs[dst] = SafeDiv(regs[a], regs[b])
	ropNeg                      // regs[dst] = -regs[a]
	ropLog                      // regs[dst] = SafeLog(regs[a])
	ropExp                      // regs[dst] = SafeExp(regs[a])
	ropMin                      // regs[dst] = math.Min(regs[a], regs[b])
	ropMax                      // regs[dst] = math.Max(regs[a], regs[b])
)

// rinstr is one three-address instruction: dst = op(a, b). For loads, a is
// the index into the external vector and b is unused.
type rinstr struct {
	op   ropcode
	dst  uint16
	a, b uint16
}

// segClass orders dependency classes; the numeric order is also the
// execution order of the segments.
type segClass uint8

const (
	segConst segClass = iota // folded at compile time; lives in the constant pool
	segExog                  // forcing only: once per (structure, dataset)
	segParam                 // parameters only: once per parameter vector
	segDay                   // forcing × parameters, state-free: once per day
	segStep                  // state-dependent: every substep
)

// Dependency bitmask underlying the class lattice.
const (
	depForcing = 1 << iota
	depParam
	depState
)

func classOf(mask uint8) segClass {
	switch {
	case mask&depState != 0:
		return segStep
	case mask&depForcing != 0 && mask&depParam != 0:
		return segDay
	case mask&depForcing != 0:
		return segExog
	case mask&depParam != 0:
		return segParam
	default:
		return segConst
	}
}

// RegProgram is a compiled, segmented register program. It may have several
// roots (e.g. dBPhy/dt and dBZoo/dt compiled together so shared limitation
// subtrees are computed once). A RegProgram is immutable and safe for
// concurrent use; all mutable state lives in the caller's register file.
type RegProgram struct {
	numRegs int

	// Constant pool: constRegs[i] is preloaded with constVals[i].
	constRegs []uint16
	constVals []float64

	exog, param, day, step []rinstr

	// exogOut lists the exogenous registers consumed outside the EXOG
	// segment (or serving as roots): the columns of the hoisted T×k
	// matrix, in ascending register order.
	exogOut []uint16

	roots []uint16
}

// regCompiler carries the state of one CompileReg run.
type regCompiler struct {
	isState func(varIdx int) bool

	numRegs int
	p       *RegProgram

	// code holds every emitted instruction in emission order;
	// splitSegments distributes it over the four segments.
	code []rinstr
	// Value numbering: op/operand identity → existing register. Registers
	// are SSA (one writer each), so a register uniquely names a value.
	vn map[vnKey]uint16
	// constByBits dedupes the literal pool.
	constByBits map[uint64]uint16
	// class[r] is the segment class of register r.
	class []segClass
	// constVal[r] holds the folded value of a segConst register.
	constVal []float64
}

type vnKey struct {
	op   ropcode
	a, b uint16
}

// CompileReg compiles one or more completed, bound trees into a shared
// segmented register program. isState classifies variable indices: state
// variables feed the STEP segment, all other variables are exogenous
// forcing. Subexpressions shared within or across roots compile to a single
// register (CSE by value numbering). The per-root results are read back with
// Root after executing the segments.
func CompileReg(roots []*Node, isState func(varIdx int) bool) (*RegProgram, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("expr: CompileReg: no roots")
	}
	if isState == nil {
		isState = func(int) bool { return false }
	}
	// A node yields at most one register and one instruction (an n-ary
	// node with k operands k-1), so the node count is a close size hint
	// for the compiler's buffers: compilation runs once per evaluation
	// when the structure cache is off.
	nodes := 0
	for _, root := range roots {
		root.Walk(func(*Node) bool { nodes++; return true })
	}
	c := &regCompiler{
		isState:     isState,
		p:           &RegProgram{roots: make([]uint16, 0, len(roots))},
		code:        make([]rinstr, 0, nodes),
		vn:          make(map[vnKey]uint16, nodes),
		constByBits: map[uint64]uint16{},
		class:       make([]segClass, 0, nodes),
		constVal:    make([]float64, 0, nodes),
	}
	for _, root := range roots {
		r, _, err := c.compile(root)
		if err != nil {
			return nil, err
		}
		c.p.roots = append(c.p.roots, r)
	}
	c.p.numRegs = c.numRegs
	c.splitSegments()
	c.collectExogOut()
	return c.p, nil
}

// splitSegments partitions the emitted instructions by class into the
// program's segments, keeping emission order within each segment, over one
// backing array.
func (c *regCompiler) splitSegments() {
	all := make([]rinstr, 0, len(c.code))
	for cls := segExog; cls <= segStep; cls++ {
		start := len(all)
		for _, in := range c.code {
			if c.class[in.dst] == cls {
				all = append(all, in)
			}
		}
		*c.segment(cls) = all[start:len(all):len(all)]
	}
}

const maxRegs = 1 << 16

func (c *regCompiler) alloc(cls segClass) (uint16, error) {
	if c.numRegs >= maxRegs {
		return 0, fmt.Errorf("expr: CompileReg: register file overflow (%d registers)", c.numRegs)
	}
	r := uint16(c.numRegs)
	c.numRegs++
	c.class = append(c.class, cls)
	c.constVal = append(c.constVal, 0)
	return r, nil
}

// constReg interns a literal value in the constant pool.
func (c *regCompiler) constReg(v float64) (uint16, error) {
	bits := math.Float64bits(v)
	if r, ok := c.constByBits[bits]; ok {
		return r, nil
	}
	r, err := c.alloc(segConst)
	if err != nil {
		return 0, err
	}
	c.constByBits[bits] = r
	c.constVal[r] = v
	c.p.constRegs = append(c.p.constRegs, r)
	c.p.constVals = append(c.p.constVals, v)
	return r, nil
}

// segment returns the instruction stream for a class (segConst never emits).
func (c *regCompiler) segment(cls segClass) *[]rinstr {
	switch cls {
	case segExog:
		return &c.p.exog
	case segParam:
		return &c.p.param
	case segDay:
		return &c.p.day
	default:
		return &c.p.step
	}
}

// emit value-numbers op(a, b); on a miss it allocates the destination
// register (of class cls) and appends the instruction.
func (c *regCompiler) emit(op ropcode, a, b uint16, cls segClass) (uint16, error) {
	key := vnKey{op, a, b}
	if r, ok := c.vn[key]; ok {
		return r, nil
	}
	r, err := c.alloc(cls)
	if err != nil {
		return 0, err
	}
	c.code = append(c.code, rinstr{op: op, dst: r, a: a, b: b})
	c.vn[key] = r
	return r, nil
}

// foldUnary/foldBinary apply the guarded operators at compile time; they
// mirror exec exactly so folding preserves bit patterns.
func foldUnary(op ropcode, a float64) float64 {
	switch op {
	case ropNeg:
		return -a
	case ropLog:
		return SafeLog(a)
	default:
		return SafeExp(a)
	}
}

func foldBinary(op ropcode, a, b float64) float64 {
	switch op {
	case ropAdd:
		return a + b
	case ropSub:
		return a - b
	case ropMul:
		return a * b
	case ropDiv:
		return SafeDiv(a, b)
	case ropMin:
		return math.Min(a, b)
	default:
		return math.Max(a, b)
	}
}

// unary/binary emit an operation, constant-folding when every operand is a
// compile-time constant.
func (c *regCompiler) unary(op ropcode, a uint16) (uint16, segClass, error) {
	if c.class[a] == segConst {
		r, err := c.constReg(foldUnary(op, c.constVal[a]))
		return r, segConst, err
	}
	cls := c.class[a]
	r, err := c.emit(op, a, 0, cls)
	return r, cls, err
}

func (c *regCompiler) binary(op ropcode, a, b uint16) (uint16, segClass, error) {
	ca, cb := c.class[a], c.class[b]
	if ca == segConst && cb == segConst {
		r, err := c.constReg(foldBinary(op, c.constVal[a], c.constVal[b]))
		return r, segConst, err
	}
	cls := classOf(depMask(ca) | depMask(cb))
	r, err := c.emit(op, a, b, cls)
	return r, cls, err
}

func depMask(cls segClass) uint8 {
	switch cls {
	case segExog:
		return depForcing
	case segParam:
		return depParam
	case segDay:
		return depForcing | depParam
	case segStep:
		return depState
	default:
		return 0
	}
}

func (c *regCompiler) compile(n *Node) (uint16, segClass, error) {
	switch n.Kind {
	case Lit:
		r, err := c.constReg(n.Val)
		return r, segConst, err
	case Var:
		if n.Index < 0 {
			return 0, 0, fmt.Errorf("expr: CompileReg: unbound var %q", n.Name)
		}
		cls := segExog
		if c.isState(n.Index) {
			cls = segStep
		}
		r, err := c.emit(ropLoadVar, uint16(n.Index), 0, cls)
		return r, cls, err
	case Param:
		if n.Index < 0 {
			return 0, 0, fmt.Errorf("expr: CompileReg: unbound param %q", n.Name)
		}
		r, err := c.emit(ropLoadParam, uint16(n.Index), 0, segParam)
		return r, segParam, err
	case Unary:
		a, _, err := c.compile(n.Kids[0])
		if err != nil {
			return 0, 0, err
		}
		var op ropcode
		switch n.Op {
		case OpNeg:
			op = ropNeg
		case OpLog:
			op = ropLog
		case OpExp:
			op = ropExp
		default:
			return 0, 0, fmt.Errorf("expr: CompileReg: bad unary op %s", n.Op)
		}
		return c.unary(op, a)
	case Binary:
		a, _, err := c.compile(n.Kids[0])
		if err != nil {
			return 0, 0, err
		}
		b, _, err := c.compile(n.Kids[1])
		if err != nil {
			return 0, 0, err
		}
		var op ropcode
		switch n.Op {
		case OpAdd:
			op = ropAdd
		case OpSub:
			op = ropSub
		case OpMul:
			op = ropMul
		case OpDiv:
			op = ropDiv
		default:
			return 0, 0, fmt.Errorf("expr: CompileReg: bad binary op %s", n.Op)
		}
		return c.binary(op, a, b)
	case Nary:
		// Lower n-ary min/max to a left fold of binary math.Min/math.Max
		// ops.
		var op ropcode
		switch n.Op {
		case OpMin:
			op = ropMin
		case OpMax:
			op = ropMax
		default:
			return 0, 0, fmt.Errorf("expr: CompileReg: bad n-ary op %s", n.Op)
		}
		if len(n.Kids) == 0 {
			return 0, 0, fmt.Errorf("expr: CompileReg: empty n-ary %s", n.Op)
		}
		acc, accCls, err := c.compile(n.Kids[0])
		if err != nil {
			return 0, 0, err
		}
		for _, k := range n.Kids[1:] {
			b, _, err := c.compile(k)
			if err != nil {
				return 0, 0, err
			}
			acc, accCls, err = c.binary(op, acc, b)
			if err != nil {
				return 0, 0, err
			}
		}
		return acc, accCls, nil
	case SubSite:
		return 0, 0, fmt.Errorf("expr: CompileReg: open substitution site %q", n.Sym)
	case Foot:
		return 0, 0, fmt.Errorf("expr: CompileReg: foot node %q", n.Sym)
	}
	return 0, 0, fmt.Errorf("expr: CompileReg: unknown node kind %d", n.Kind)
}

// collectExogOut gathers the exogenous registers that are read outside the
// EXOG segment (by DAY/STEP instructions or as roots): only these need to be
// materialized into the hoisted matrix and reloaded per day.
func (c *regCompiler) collectExogOut() {
	live := make([]bool, c.numRegs)
	nlive := 0
	mark := func(r uint16) {
		if c.class[r] == segExog && !live[r] {
			live[r] = true
			nlive++
		}
	}
	for _, seg := range [][]rinstr{c.p.day, c.p.step} {
		for _, in := range seg {
			if in.op == ropLoadVar || in.op == ropLoadParam {
				continue
			}
			mark(in.a)
			if in.op != ropNeg && in.op != ropLog && in.op != ropExp {
				mark(in.b)
			}
		}
	}
	for _, r := range c.p.roots {
		mark(r)
	}
	// Ascending register order = compile order: deterministic columns.
	out := make([]uint16, 0, nlive)
	for r, ok := range live {
		if ok {
			out = append(out, uint16(r))
		}
	}
	c.p.exogOut = out
}

// exec runs one instruction stream against the register file. vars and
// params back the load instructions; streams without loads may pass nil.
func exec(code []rinstr, vars, params, regs []float64) {
	for i := range code {
		in := &code[i]
		switch in.op {
		case ropLoadVar:
			regs[in.dst] = vars[in.a]
		case ropLoadParam:
			regs[in.dst] = params[in.a]
		case ropAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case ropSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
		case ropMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
		case ropDiv:
			regs[in.dst] = SafeDiv(regs[in.a], regs[in.b])
		case ropNeg:
			regs[in.dst] = -regs[in.a]
		case ropLog:
			regs[in.dst] = SafeLog(regs[in.a])
		case ropExp:
			regs[in.dst] = SafeExp(regs[in.a])
		case ropMin:
			regs[in.dst] = math.Min(regs[in.a], regs[in.b])
		case ropMax:
			regs[in.dst] = math.Max(regs[in.a], regs[in.b])
		}
	}
}

// NumRegs returns the register-file size required by every Eval* method.
func (p *RegProgram) NumRegs() int { return p.numRegs }

// NumRoots returns the number of compiled roots.
func (p *RegProgram) NumRoots() int { return len(p.roots) }

// ExogWidth returns k, the number of hoisted exogenous registers (the
// column count of the per-dataset matrix).
func (p *RegProgram) ExogWidth() int { return len(p.exogOut) }

// SegmentSizes reports the instruction count of each segment, for telemetry
// and tests.
func (p *RegProgram) SegmentSizes() (exog, param, day, step int) {
	return len(p.exog), len(p.param), len(p.day), len(p.step)
}

// InitConsts loads the literal pool into regs. It must run before any
// segment is executed against a fresh register file.
func (p *RegProgram) InitConsts(regs []float64) {
	for i, r := range p.constRegs {
		regs[r] = p.constVals[i]
	}
}

// EvalExog evaluates the exogenous segment for every forcing row and writes
// the live-out registers into out, row-major with stride ExogWidth(). regs
// is caller scratch (length ≥ NumRegs); consts are initialized internally.
// out must have length ≥ len(rows)·ExogWidth().
func (p *RegProgram) EvalExog(rows [][]float64, regs, out []float64) {
	p.InitConsts(regs)
	k := len(p.exogOut)
	for t, row := range rows {
		exec(p.exog, row, nil, regs)
		dst := out[t*k : t*k+k]
		for j, r := range p.exogOut {
			dst[j] = regs[r]
		}
	}
}

// EvalParam initializes consts and runs the per-candidate parameter
// prologue (param loads + forcing-free arithmetic) into regs.
func (p *RegProgram) EvalParam(params, regs []float64) {
	p.InitConsts(regs)
	exec(p.param, nil, params, regs)
}

// LoadExogRow restores the hoisted exogenous registers from one row of the
// matrix produced by EvalExog (length ExogWidth()).
func (p *RegProgram) LoadExogRow(row, regs []float64) {
	for j, r := range p.exogOut {
		regs[r] = row[j]
	}
}

// EvalDay runs the per-day segment (forcing × parameter instructions,
// state-free). LoadExogRow and EvalParam must have run first.
func (p *RegProgram) EvalDay(regs []float64) {
	exec(p.day, nil, nil, regs)
}

// EvalStep runs the per-substep segment against the current state values in
// vars (only state-variable indices are read). This is the innermost kernel:
// everything loop-invariant has been hoisted into the other segments.
func (p *RegProgram) EvalStep(vars, regs []float64) {
	exec(p.step, vars, nil, regs)
}

// Root reads back the i-th root's value from the register file.
func (p *RegProgram) Root(i int, regs []float64) float64 { return regs[p.roots[i]] }

// EvalOnce evaluates the whole program for a single variable/parameter
// vector by running all four segments in order, returning the first root.
// It exists for differential testing and one-off evaluations; hot paths use
// the segmented entry points.
func (p *RegProgram) EvalOnce(vars, params, regs []float64) float64 {
	p.InitConsts(regs)
	exec(p.exog, vars, nil, regs)
	exec(p.param, nil, params, regs)
	exec(p.day, nil, nil, regs)
	exec(p.step, vars, nil, regs)
	return regs[p.roots[0]]
}
