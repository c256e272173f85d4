package expr

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the segmented register VM (regvm.go): the register
// program must agree with the tree interpreter (Node.Eval, the reference
// oracle) in value whenever no NaN flows through an n-ary node. The tree's
// compare-select loop drops later-operand NaNs and keeps the first of two
// equal values (±0), while the VM folds n-ary min/max left-to-right through
// math.Min/math.Max, which propagates NaNs — a deliberate, documented
// divergence. The segmented entry points must agree with EvalOnce bitwise.

// bindTestTree binds the randTree/property-test name universe: variables
// V1, V2, BPhy, BZoo (indices 0-3, with BPhy/BZoo playing the state roles)
// and parameters C1, C2.
var (
	testVarIdx   = map[string]int{"V1": 0, "V2": 1, "BPhy": 2, "BZoo": 3}
	testParamIdx = map[string]int{"C1": 0, "C2": 1}
)

func testIsState(idx int) bool { return idx == 2 || idx == 3 }

// evalTreeAndVM evaluates tree through the interpreter and the register VM
// on one point, returning (tree result, register result).
func evalTreeAndVM(t *testing.T, tree *Node, vars, params []float64) (float64, float64) {
	t.Helper()
	rp, err := CompileReg([]*Node{tree}, testIsState)
	if err != nil {
		t.Fatalf("CompileReg(%s): %v", tree, err)
	}
	tv, err := tree.Eval(&Env{Vars: vars, Params: params})
	if err != nil {
		t.Fatalf("tree Eval(%s): %v", tree, err)
	}
	return tv, rp.EvalOnce(vars, params, make([]float64, rp.NumRegs()))
}

// sameBits reports bitwise equality, treating any-NaN-vs-any-NaN as equal.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestRegVMMatchesTreeFixed(t *testing.T) {
	exprs := []string{
		"1 + 2 * 3",
		"(V1 + C1) * (V1 + C1)",                  // CSE: shared subtree
		"BPhy * C1 - BZoo / (V2 + C2)",           // all three dependency classes
		"min(V1, C1, BPhy)",                      // n-ary spanning classes
		"max(0.5, V2, -1)",                       // n-ary with consts
		"log(exp(V1 * C2))",                      // guarded unaries
		"V1 / (V2 - V2)",                         // division by exact zero (guard)
		"exp(100 * V1)",                          // exp clamp region
		"log(0)",                                 // log guard, const-folded
		"-(-(BPhy))",                             // nested neg
		"C1 / 0",                                 // const-folded guarded division
		"min(V1, V1)",                            // duplicate operands
		"(V1 * V2) + (V1 * V2) + BPhy*(V1 * V2)", // CSE across segments
	}
	vars := []float64{1.7, -0.3, 2.5, 0.9}
	params := []float64{0.25, -4.0}
	for _, src := range exprs {
		tree := MustParse(src)
		if err := Bind(tree, testVarIdx, testParamIdx); err != nil {
			t.Fatalf("Bind(%q): %v", src, err)
		}
		tv, rv := evalTreeAndVM(t, tree, vars, params)
		if !sameBits(tv, rv) {
			t.Errorf("%q: tree %v (%#x) != register VM %v (%#x)",
				src, tv, math.Float64bits(tv), rv, math.Float64bits(rv))
		}
	}
}

func TestRegVMSegmentClassification(t *testing.T) {
	// V1*V2 → EXOG; C1+C2 → PARAM (single add; loads are param-segment
	// instructions too); (V1*V2)*(C1+C2) → DAY; BPhy*that → STEP.
	tree := MustParse("BPhy * ((V1 * V2) * (C1 + C2))")
	if err := Bind(tree, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	rp, err := CompileReg([]*Node{tree}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	exog, param, day, step := rp.SegmentSizes()
	// EXOG: load V1, load V2, mul = 3. PARAM: load C1, load C2, add = 3.
	// DAY: mul = 1. STEP: load BPhy, mul = 2.
	if exog != 3 || param != 3 || day != 1 || step != 2 {
		t.Fatalf("segment sizes exog=%d param=%d day=%d step=%d; want 3/3/1/2", exog, param, day, step)
	}
	// Only the V1*V2 product crosses out of the EXOG segment.
	if w := rp.ExogWidth(); w != 1 {
		t.Fatalf("ExogWidth = %d; want 1 (only the V1*V2 product is live-out)", w)
	}
}

func TestRegVMCSECollapsesSharedSubtrees(t *testing.T) {
	shared := MustParse("(V1 + C1) * (V1 + C1)")
	if err := Bind(shared, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	rp, err := CompileReg([]*Node{shared}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	exog, param, day, step := rp.SegmentSizes()
	// load V1, load C1, add (DAY), mul (DAY): the second (V1+C1) is
	// value-numbered away.
	if total := exog + param + day + step; total != 4 {
		t.Fatalf("CSE failed: %d instructions (exog=%d param=%d day=%d step=%d); want 4",
			total, exog, param, day, step)
	}

	// Cross-root CSE: two roots sharing a limitation-style subtree compile
	// it once.
	a := MustParse("BPhy * (V1 / (V1 + C1))")
	b := MustParse("BZoo * (V1 / (V1 + C1))")
	if err := Bind(a, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	if err := Bind(b, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	two, err := CompileReg([]*Node{a, b}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CompileReg([]*Node{a}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	e2, p2, d2, s2 := two.SegmentSizes()
	e1, p1, d1, s1 := one.SegmentSizes()
	// Adding the second root costs exactly two more instructions (load
	// BZoo + mul); the shared V1/(V1+C1) subtree is reused.
	if got, want := e2+p2+d2+s2, e1+p1+d1+s1+2; got != want {
		t.Fatalf("cross-root CSE failed: 2-root program has %d instructions, want %d", got, want)
	}
	if two.NumRoots() != 2 {
		t.Fatalf("NumRoots = %d; want 2", two.NumRoots())
	}
}

// TestRegVMSegmentedExecutionMatchesEvalOnce drives the segmented entry
// points the way the bio kernel does (EvalExogLanes into a matrix, checked
// against EvalExog; EvalParam, with the vector broadcast by EvalParamLanes;
// per group of Lanes days LoadExogRowsLanes+EvalDayLanes; per day
// LoadStepInputs, then EvalStep per substep) and checks bitwise agreement
// with EvalOnce, and agreement with the tree, on every row. 50 days end in
// a short group.
func TestRegVMSegmentedExecutionMatchesEvalOnce(t *testing.T) {
	tree := MustParse("BPhy*C1*(V1/(V1+C2)) - BZoo*min(V2, C2, BPhy) + log(V1*V2) + exp(C2*V2)")
	if err := Bind(tree, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	rp, err := CompileReg([]*Node{tree}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, day, _ := rp.SegmentSizes(); day == 0 {
		t.Fatal("test program has no DAY instructions")
	}
	rng := rand.New(rand.NewSource(7))
	const days = 50
	rows := make([][]float64, days)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, 0, 0}
	}
	params := []float64{0.7, -1.3}
	k := rp.ExogWidth()
	matrix := make([]float64, days*k)
	rp.EvalExogLanes(rows, make([]float64, rp.LaneRegs()), matrix)
	ref := make([]float64, days*k)
	rp.EvalExog(rows, make([]float64, rp.NumRegs()), ref)
	for i := range ref {
		if !sameBits(matrix[i], ref[i]) {
			t.Fatalf("EvalExogLanes[%d] = %v, EvalExog %v", i, matrix[i], ref[i])
		}
	}

	regs := make([]float64, rp.NumRegs())
	rp.EvalParam(params, regs)
	laneRegs := make([]float64, rp.LaneRegs())
	var broadcast [Lanes][]float64
	for l := range broadcast {
		broadcast[l] = params
	}
	rp.EvalParamLanes(&broadcast, laneRegs)
	onceRegs := make([]float64, rp.NumRegs())
	vars := make([]float64, 4)
	for t0 := 0; t0 < days; t0 += Lanes {
		n := min(Lanes, days-t0)
		rp.LoadExogRowsLanes(matrix[t0*k:(t0+n)*k], laneRegs)
		rp.EvalDayLanes(laneRegs)
		for l := 0; l < n; l++ {
			ti := t0 + l
			rp.LoadStepInputs(l, laneRegs, regs)
			for step := 0; step < 3; step++ {
				copy(vars, rows[ti])
				vars[2] = 1.5 + float64(step)*0.25 // BPhy
				vars[3] = 0.5 + float64(step)*0.1  // BZoo
				rp.EvalStep(vars, regs)
				seg := rp.Root(0, regs)
				once := rp.EvalOnce(vars, params, onceRegs)
				tv, err := tree.Eval(&Env{Vars: vars, Params: params})
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(seg, once) || !sameBits(seg, tv) {
					t.Fatalf("day %d substep %d: segmented %v, EvalOnce %v, tree %v", ti, step, seg, once, tv)
				}
			}
		}
	}
}

// TestRegVMVsTreeProperty: 800 random trees × 6 random points; the tree
// interpreter must agree in value whenever the VM result is not NaN
// (NaN-free evaluations cannot diverge; see the n-ary note at the top of
// the file).
func TestRegVMVsTreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	treeChecked := 0
	for i := 0; i < 800; i++ {
		tree := randTree(rng, 5)
		if err := Bind(tree, testVarIdx, testParamIdx); err != nil {
			t.Fatalf("Bind(%s): %v", tree, err)
		}
		rp, err := CompileReg([]*Node{tree}, testIsState)
		if err != nil {
			t.Fatalf("CompileReg(%s): %v", tree, err)
		}
		regs := make([]float64, rp.NumRegs())
		for p := 0; p < 6; p++ {
			vars := []float64{
				-5 + 10*rng.Float64(), -5 + 10*rng.Float64(),
				-5 + 10*rng.Float64(), -5 + 10*rng.Float64(),
			}
			params := []float64{-5 + 10*rng.Float64(), -5 + 10*rng.Float64()}
			rv := rp.EvalOnce(vars, params, regs)
			if !math.IsNaN(rv) {
				env := &Env{Vars: vars, Params: params}
				tv, err := tree.Eval(env)
				if err != nil {
					t.Fatalf("tree Eval(%s): %v", tree, err)
				}
				// Plain equality (not bits): the tree's compare-select
				// min/max keeps the first of two equal values, so ±0
				// choices may differ from math.Min/math.Max.
				if tv != rv {
					t.Fatalf("tree divergence on %s\nvars %v params %v\ntree %v reg %v",
						tree, vars, params, tv, rv)
				}
				treeChecked++
			}
		}
	}
	if treeChecked < 2000 {
		t.Fatalf("only %d NaN-free tree comparisons; property is vacuous", treeChecked)
	}
}

// FuzzRegisterVMVsTreeEval cross-checks the register VM against the tree
// interpreter on arbitrary parsed expressions and arbitrary input points:
// every tree the interpreter can evaluate must compile, and the two must
// agree in value when the VM result is not NaN.
func FuzzRegisterVMVsTreeEval(f *testing.F) {
	seeds := []struct {
		src                        string
		v1, v2, bphy, bzoo, c1, c2 float64
	}{
		{"BPhy * C1 - BZoo / (V2 + C2)", 1, -2, 3, 0.5, 0.25, -4},
		{"min(V1, C1, BPhy)", 0.5, 0, 2.5, 1, -1, 7},
		{"log(exp(V1 * C2))", 60, 0, 0, 0, 0, 2},
		{"V1 / (V2 - V2)", 3, 9, 0, 0, 0, 0},
		{"max(0 / 0, V1)", 1, 1, 1, 1, 1, 1},
		{"(V1 + C1) * (V1 + C1) + exp(BZoo)", -0.5, 0, 0, 49.5, 0.5, 0},
	}
	for _, s := range seeds {
		f.Add(s.src, s.v1, s.v2, s.bphy, s.bzoo, s.c1, s.c2)
	}
	f.Fuzz(func(t *testing.T, src string, v1, v2, bphy, bzoo, c1, c2 float64) {
		if len(src) > 1<<10 {
			t.Skip("input too long")
		}
		tree, err := Parse(src)
		if err != nil {
			return
		}
		if err := Bind(tree, testVarIdx, testParamIdx); err != nil {
			return // names outside the bound universe
		}
		vars := []float64{v1, v2, bphy, bzoo}
		params := []float64{c1, c2}
		tv, err := tree.Eval(&Env{Vars: vars, Params: params})
		if err != nil {
			return // e.g. open substitution sites
		}
		rp, err := CompileReg([]*Node{tree}, testIsState)
		if err != nil {
			t.Fatalf("tree evaluates %q but CompileReg failed: %v", src, err)
		}
		rv := rp.EvalOnce(vars, params, make([]float64, rp.NumRegs()))
		if !math.IsNaN(rv) {
			if tv != rv {
				t.Fatalf("tree divergence on %q\nvars %v params %v\ntree %v reg %v", src, vars, params, tv, rv)
			}
		}
	})
}
