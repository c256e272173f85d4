package bio

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/expr"
)

// Differential tests for the compiled simulation path: SegSystem (register
// VM, exogenous hoisting, per-day invariant evaluation) must reproduce the
// tree interpreter's System.RunBuf bit for bit — every prediction, every
// per-day hook call, early stops, and non-finite aborts included.

// bindBio parses src and binds it against the bio variable/parameter
// layout.
func bindBio(t *testing.T, src string, paramIdx map[string]int) *expr.Node {
	t.Helper()
	n := expr.MustParse(src)
	if err := expr.Bind(n, VarIndex(), paramIdx); err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	return n
}

// segTestSystems returns (phy, zoo) derivative pairs spanning the shapes
// the grammar produces: limitation products, min-of-limitations, guarded
// division, exp/log terms, pure-forcing terms, pure-parameter terms, and a
// hostile pair that drives the state non-finite.
func segTestSystems(t *testing.T, paramIdx map[string]int) [][2]*expr.Node {
	t.Helper()
	pairs := [][2]string{
		{
			// Realistic growth/grazing shapes with shared limitation terms.
			"BPhy * CUA * min(Vn / (Vn + CN), Vp / (Vp + CP), Vlgt / CBL) - CMFR * BZoo * (BPhy / (BPhy + CFS))",
			"CUZ * BZoo * (BPhy / (BPhy + CFS)) - CDZ * BZoo",
		},
		{
			// exp/log transforms of forcing and parameters.
			"BPhy * (CUA * exp(-(Vtmp - CBTP1) * (Vtmp - CBTP1) * CPT)) - CBRA * BPhy",
			"BZoo * log(Vdo + CFmin) - CBRZ * BZoo * exp(CBMT)",
		},
		{
			// Pure-forcing and pure-parameter derivative terms (empty STEP
			// dependencies except the loads).
			"Vlgt / (Vtmp + CFS)",
			"CUZ * CDZ - CBRZ",
		},
		{
			// Guarded division by a vanishing denominator + n-ary max.
			"BPhy / (Vn - Vn) * 1e-14 + max(Vp, CP, BZoo)",
			"BZoo - CDZ * max(BZoo, CFmin)",
		},
		{
			// Hostile: exponential blow-up to exercise the non-finite abort.
			"exp(exp(BPhy)) * Vlgt",
			"BZoo * BZoo * BZoo * CUA + exp(BPhy * Vtmp)",
		},
	}
	out := make([][2]*expr.Node, len(pairs))
	for i, p := range pairs {
		out[i] = [2]*expr.Node{bindBio(t, p[0], paramIdx), bindBio(t, p[1], paramIdx)}
	}
	return out
}

func randForcing(rng *rand.Rand, days int) [][]float64 {
	f := make([][]float64, days)
	for t := range f {
		row := make([]float64, NumVars)
		for j := range row {
			row[j] = rng.Float64() * 30
		}
		f[t] = row
	}
	return f
}

// stepTrace records the perStep call sequence for bitwise comparison.
type stepTrace struct {
	ts   []int
	vals []uint64 // Float64bits so NaN payloads compare exactly
}

func (tr *stepTrace) hook(stopAt int) func(int, float64) bool {
	return func(t int, bphy float64) bool {
		tr.ts = append(tr.ts, t)
		tr.vals = append(tr.vals, math.Float64bits(bphy))
		return stopAt < 0 || t < stopAt
	}
}

// runAlone simulates every member of params in its own one-member
// KernelLanes call, the scalar loop, member m stopping after day stopAt[m]
// (negative: the whole window; nil stopAt: every member runs it all).
func runAlone(seg *SegSystem, plan *ExogPlan, cfg SimConfig, params [][]float64, stopAt []int) []stepTrace {
	trs := make([]stepTrace, len(params))
	var sc SimScratch
	for m := range params {
		stop := -1
		if stopAt != nil {
			stop = stopAt[m]
		}
		hook := trs[m].hook(stop)
		seg.KernelLanes(plan, cfg, &sc, params[m:m+1], func(_, t int, bphy float64) bool { return hook(t, bphy) }, nil)
	}
	return trs
}

func sameTrace(a, b *stepTrace) bool {
	if len(a.ts) != len(b.ts) {
		return false
	}
	for i := range a.ts {
		if a.ts[i] != b.ts[i] || a.vals[i] != b.vals[i] {
			return false
		}
	}
	return true
}

// canonNaN replaces every NaN in a trace with math.NaN()'s bits.
func canonNaN(tr *stepTrace) {
	for i, v := range tr.vals {
		if math.IsNaN(math.Float64frombits(v)) {
			tr.vals[i] = math.Float64bits(math.NaN())
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSegSystemMatchesTreeSystem: over fixed system shapes × random
// forcing × random parameters × several SimConfigs (including disabled
// clamps and early stops), the segmented path reproduces the tree
// interpreter bitwise, predictions and perStep traces alike, also over
// windows that end at the edges of a group of time lanes and runs that
// abort inside one.
func TestSegSystemMatchesTreeSystem(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	rng := rand.New(rand.NewSource(42))
	cfgs := []SimConfig{
		{SubSteps: 1, Phy0: 2, Zoo0: 1},
		{SubSteps: 4, Phy0: 0.5, Zoo0: 1.5},
		{SubSteps: 2, Phy0: 3, Zoo0: 0.1, ClampMin: -1, ClampMax: -1},
		{SubSteps: 3, Phy0: 1, Zoo0: 1, ClampMin: -1, ClampMax: 50},
	}
	for si, pair := range segTestSystems(t, paramIdx) {
		tree := NewTreeSystem(pair[0], pair[1])
		seg, err := NewSegSystem(pair[0], pair[1])
		if err != nil {
			t.Fatalf("system %d: NewSegSystem: %v", si, err)
		}
		for trial := 0; trial < 8; trial++ {
			forcing := randForcing(rng, 40+rng.Intn(60))
			params := make([]float64, len(consts))
			for i, c := range consts {
				params[i] = c.Min + rng.Float64()*(c.Max-c.Min)
			}
			cfg := cfgs[trial%len(cfgs)]
			stopAt := -1
			if trial%3 == 2 {
				stopAt = rng.Intn(len(forcing)) // early stop via perStep
			}

			var trTree stepTrace
			var scTree SimScratch
			tree.RunBuf(forcing, params, cfg, &scTree, trTree.hook(stopAt))
			trSeg := runAlone(seg, seg.NewExogPlan(forcing), cfg, [][]float64{params}, []int{stopAt})[0]
			if !sameTrace(&trTree, &trSeg) {
				t.Fatalf("system %d trial %d: hook traces diverge\ntree %v\nseg  %v", si, trial, trTree.ts, trSeg.ts)
			}

			// The Predict entry points must agree as well.
			full := tree.Predict(forcing, params, cfg)
			if !bitsEqual(full, seg.Predict(forcing, params, cfg)) {
				t.Fatalf("system %d trial %d: SegSystem.Predict diverges from the tree", si, trial)
			}
		}

		// Windows of 7, 9 and 17 days (ending inside a group of
		// expr.Lanes time lanes, one day past one group, one day past
		// two), whole and with a NaN forcing row that aborts the run
		// inside a group.
		for _, w := range []struct{ days, nanDay int }{{7, 3}, {9, 4}, {17, 11}} {
			for _, poison := range []bool{false, true} {
				forcing := randForcing(rng, w.days)
				if poison {
					for j := range forcing[w.nanDay] {
						forcing[w.nanDay][j] = math.NaN()
					}
				}
				params := randBoxParams(rng, consts)
				cfg := cfgs[w.days%len(cfgs)]
				var trTree stepTrace
				var scTree SimScratch
				tree.RunBuf(forcing, params, cfg, &scTree, trTree.hook(-1))
				trSeg := runAlone(seg, seg.NewExogPlan(forcing), cfg, [][]float64{params}, nil)[0]
				// Go leaves a NaN's sign unspecified, and a NaN operand's
				// sign survives a product or sum depending on the order
				// the compiler gives the operands, so the tree interpreter
				// and the register VM differ there. The hook's consumers
				// tell NaN only from ±Inf.
				canonNaN(&trTree)
				canonNaN(&trSeg)
				if !sameTrace(&trTree, &trSeg) {
					t.Fatalf("system %d, %d days, poison %v: hook traces diverge\ntree %v\nseg  %v", si, w.days, poison, trTree.ts, trSeg.ts)
				}
				last := len(trSeg.ts) - 1
				if poison && (last < 0 || trSeg.ts[last] > w.nanDay || !math.IsNaN(math.Float64frombits(trSeg.vals[last])) && !math.IsInf(math.Float64frombits(trSeg.vals[last]), 0)) {
					t.Fatalf("system %d, %d days: NaN forcing on day %d did not abort the run (trace days %v)", si, w.days, w.nanDay, trSeg.ts)
				}
			}
		}
	}
}

// TestSegSystemRandomTreesProperty builds random derivative trees over the
// bio variable universe and checks segmented-vs-tree parity across
// random forcing and parameters. Trees are grown from the same operator
// set the grammar uses.
func TestSegSystemRandomTreesProperty(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	varIdx := VarIndex()
	varNames := make([]string, 0, len(varIdx))
	for _, s := range StateVars() {
		varNames = append(varNames, s)
	}
	for _, v := range Variables() {
		varNames = append(varNames, v.Name)
	}
	paramNames := make([]string, 0, len(consts))
	for _, c := range consts {
		paramNames = append(paramNames, c.Name)
	}
	rng := rand.New(rand.NewSource(9))

	var grow func(depth int) *expr.Node
	grow = func(depth int) *expr.Node {
		if depth <= 0 || rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				lits := []float64{0, 1, -1, 0.5, 2, 0.05}
				return expr.NewLit(lits[rng.Intn(len(lits))])
			case 1:
				return expr.NewVar(varNames[rng.Intn(len(varNames))])
			default:
				return expr.NewParam(paramNames[rng.Intn(len(paramNames))])
			}
		}
		switch rng.Intn(8) {
		case 0:
			return expr.Neg(grow(depth - 1))
		case 1:
			return expr.Log(grow(depth - 1))
		case 2:
			return expr.Exp(grow(depth - 1))
		case 3:
			return expr.Add(grow(depth-1), grow(depth-1))
		case 4:
			return expr.Sub(grow(depth-1), grow(depth-1))
		case 5:
			return expr.Mul(grow(depth-1), grow(depth-1))
		case 6:
			return expr.Div(grow(depth-1), grow(depth-1))
		default:
			if rng.Intn(2) == 0 {
				return expr.Min(grow(depth-1), grow(depth-1), grow(depth-1))
			}
			return expr.Max(grow(depth-1), grow(depth-1))
		}
	}

	for trial := 0; trial < 60; trial++ {
		phy, zoo := grow(4), grow(4)
		if err := expr.Bind(phy, varIdx, paramIdx); err != nil {
			t.Fatal(err)
		}
		if err := expr.Bind(zoo, varIdx, paramIdx); err != nil {
			t.Fatal(err)
		}
		tree := NewTreeSystem(phy, zoo)
		seg, err := NewSegSystem(phy, zoo)
		if err != nil {
			t.Fatal(err)
		}
		forcing := randForcing(rng, 30)
		params := make([]float64, len(consts))
		for i, c := range consts {
			params[i] = c.Min + rng.Float64()*(c.Max-c.Min)
		}
		cfg := SimConfig{SubSteps: 1 + rng.Intn(4), Phy0: rng.Float64() * 4, Zoo0: rng.Float64() * 2}
		if trial%4 == 0 {
			cfg.ClampMin, cfg.ClampMax = -1, -1
		}
		var trA stepTrace
		a := tree.Run(forcing, params, cfg, trA.hook(-1))
		b := seg.Predict(forcing, params, cfg)
		trB := runAlone(seg, seg.NewExogPlan(forcing), cfg, [][]float64{params}, nil)[0]
		if !bitsEqual(a, b) {
			t.Fatalf("trial %d: predictions diverge\nphy %s\nzoo %s\ntree %v\nseg  %v", trial, phy, zoo, a, b)
		}
		if !sameTrace(&trA, &trB) {
			t.Fatalf("trial %d: traces diverge (phy %s, zoo %s)", trial, phy, zoo)
		}
	}
}

// TestSegKernelSteadyStateAllocFree: with the plan built and the scratch
// warm, a one-member KernelLanes call (the scalar loop) must not allocate —
// this is the per-candidate cost of a lone evaluation.
func TestSegKernelSteadyStateAllocFree(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	forcing := randForcing(rng, 120)
	params := Means(consts)
	cfg := SimConfig{SubSteps: 4, Phy0: 2, Zoo0: 1}
	plan := seg.NewExogPlan(forcing)
	one := [][]float64{params}
	hook := func(int, int, float64) bool { return true }
	var sc SimScratch
	seg.KernelLanes(plan, cfg, &sc, one, hook, nil) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		seg.KernelLanes(plan, cfg, &sc, one, hook, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state one-member KernelLanes allocates %.1f objects/run; want 0", allocs)
	}
}
