package expr

import (
	"math"
	"math/rand"
	"testing"
)

// This file holds randomized property tests for the simplifier and the
// canonicalizer. They are deterministic (fixed seeds), so a pass is
// reproducible; the generators are shared with nothing else.

// randTree grows a random expression over the library's full operator set,
// with leaves drawn from a small literal pool (including the identity
// elements 0 and 1, so identity-elimination rules actually fire), a few
// variables, and a few parameters.
func randTree(rng *rand.Rand, depth int) *Node {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			lits := []float64{0, 1, -1, 0.5, 2, 3.7, -2.25}
			return NewLit(lits[rng.Intn(len(lits))])
		case 1:
			vars := []string{"V1", "V2", "BPhy", "BZoo"}
			return NewVar(vars[rng.Intn(len(vars))])
		default:
			params := []string{"C1", "C2"}
			return NewParam(params[rng.Intn(len(params))])
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Neg(randTree(rng, depth-1))
	case 1:
		return Log(randTree(rng, depth-1))
	case 2:
		return Exp(randTree(rng, depth-1))
	case 3:
		return Add(randTree(rng, depth-1), randTree(rng, depth-1))
	case 4:
		return Sub(randTree(rng, depth-1), randTree(rng, depth-1))
	case 5:
		return Mul(randTree(rng, depth-1), randTree(rng, depth-1))
	case 6:
		return Div(randTree(rng, depth-1), randTree(rng, depth-1))
	default:
		kids := []*Node{randTree(rng, depth-1), randTree(rng, depth-1)}
		if rng.Intn(2) == 0 {
			kids = append(kids, randTree(rng, depth-1))
		}
		if rng.Intn(2) == 0 {
			return Min(kids...)
		}
		return Max(kids...)
	}
}

// evalChecked mirrors Eval but additionally reports whether the evaluation
// passed through a guard-sensitive region where simplification rules are
// only approximately semantics-preserving:
//
//   - SafeDiv near the |b| < divEps clamp (x/x → 1 is wrong there)
//   - SafeLog of a non-positive or near-zero argument (exp(log(x)) → x
//     relies on x being safely positive)
//   - SafeExp near the ±50 clamp (log(exp(x)) → x is wrong beyond it)
//   - any intermediate exceeding 1e12, where literal re-association error
//     stops being negligible
//
// Points that hit those regions are skipped by the property test; the test
// asserts that enough points survive to keep the property meaningful.
func evalChecked(n *Node, env *Env) (float64, bool) {
	switch n.Kind {
	case Lit:
		return n.Val, false
	case Var:
		return env.VarByName[n.Name], false
	case Param:
		return env.ParamByName[n.Name], false
	case Unary:
		a, risky := evalChecked(n.Kids[0], env)
		var v float64
		switch n.Op {
		case OpNeg:
			v = -a
		case OpLog:
			v = SafeLog(a)
			risky = risky || a < 1e-6
		case OpExp:
			v = SafeExp(a)
			risky = risky || math.Abs(a) > 49
		}
		return v, risky || math.Abs(v) > 1e12
	case Binary:
		a, ra := evalChecked(n.Kids[0], env)
		b, rb := evalChecked(n.Kids[1], env)
		risky := ra || rb
		var v float64
		switch n.Op {
		case OpAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul:
			v = a * b
		case OpDiv:
			v = SafeDiv(a, b)
			risky = risky || math.Abs(b) < 1e-6
		}
		return v, risky || math.Abs(v) > 1e12
	case Nary:
		best, risky := evalChecked(n.Kids[0], env)
		for _, k := range n.Kids[1:] {
			v, r := evalChecked(k, env)
			risky = risky || r
			if (n.Op == OpMin && v < best) || (n.Op == OpMax && v > best) {
				best = v
			}
		}
		return best, risky
	}
	return math.NaN(), true
}

func randEnv(rng *rand.Rand) *Env {
	point := func(names []string) map[string]float64 {
		m := make(map[string]float64, len(names))
		for _, n := range names {
			m[n] = -3 + 6*rng.Float64()
		}
		return m
	}
	return &Env{
		VarByName:   point([]string{"V1", "V2", "BPhy", "BZoo"}),
		ParamByName: point([]string{"C1", "C2"}),
	}
}

// TestSimplifyPreservesSemanticsGuarded: over 500 random trees × 8 random
// points, the simplified tree evaluates to the original tree's value (up
// to floating-point re-association) wherever the arithmetic guards do not
// engage. Unlike expr_test.go's TestSimplifyPreservesSemantics, the
// generator here includes log/exp — whose inverse-composition rules are
// only valid away from the guard regions — so guard-sensitive points are
// detected and skipped rather than generated around.
func TestSimplifyPreservesSemanticsGuarded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared, skipped := 0, 0
	for i := 0; i < 500; i++ {
		tree := randTree(rng, 5)
		before := tree.String()
		simp := Simplify(tree)
		if tree.String() != before {
			t.Fatalf("Simplify mutated its input:\nbefore %s\nafter  %s", before, tree)
		}
		for p := 0; p < 8; p++ {
			env := randEnv(rng)
			orig, risky := evalChecked(tree, env)
			if risky || math.IsNaN(orig) || math.IsInf(orig, 0) {
				skipped++
				continue
			}
			got, err := simp.Eval(env)
			if err != nil {
				t.Fatalf("simplified tree %s does not evaluate: %v", simp, err)
			}
			tol := 1e-6 * math.Max(1, math.Abs(orig))
			if math.Abs(got-orig) > tol {
				t.Fatalf("semantics changed at point %d:\ntree       %s\nsimplified %s\nvars %v params %v\noriginal %v simplified %v",
					p, tree, simp, env.VarByName, env.ParamByName, orig, got)
			}
			compared++
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d comparisons survived the guard filter (skipped %d); property is vacuous", compared, skipped)
	}
}

// TestCanonIdempotent: the canonical form is a fixpoint after one
// application — the canonical rendering (used as the tree-cache key) of
// Simplify(t) and Simplify(Simplify(t)) is identical for 500 random trees.
func TestCanonIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		tree := randTree(rng, 5)
		c1 := Simplify(tree)
		c2 := Simplify(c1)
		if c1.String() != c2.String() {
			t.Fatalf("Simplify not idempotent:\ntree  %s\nonce  %s\ntwice %s", tree, c1, c2)
		}
	}
}

// TestCanonCollapsesEquivalentForms: syntactically different but
// algebraically identical revisions must share a cache key.
func TestCanonCollapsesEquivalentForms(t *testing.T) {
	cases := [][2]string{
		{"(x + 0.5) + 1.5", "x + 2"},
		{"2 * (x * 3)", "x * 6"},
		{"0.5 + x", "x + 0.5"},
		{"(x - x) + y", "y"},
		{"log(exp(BPhy))", "BPhy"},
		{"min(x, x, 2, 7)", "min(x, 2)"},
		{"-(-x)", "x"},
	}
	for _, c := range cases {
		a, b := MustParse(c[0]), MustParse(c[1])
		if got, want := Simplify(a).String(), Simplify(b).String(); got != want {
			t.Errorf("Simplify(%q) = %s, Simplify(%q) = %s; want identical", c[0], got, c[1], want)
		}
	}
}
