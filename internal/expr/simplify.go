package expr

import "math"

// Simplify returns an algebraically simplified copy of the tree. The
// original tree is not modified. Simplification performs constant folding
// and identity elimination; it exists both to shrink evolved trees and to
// normalize them so that tree caching (Section III-D of the paper) gets a
// higher hit rate.
//
// Rules applied bottom-up:
//
//	const op const        → folded literal (using the guarded operators)
//	x + 0, 0 + x          → x
//	x - 0                 → x
//	x - x                 → 0        (structurally identical subtrees)
//	x * 1, 1 * x          → x
//	x * 0, 0 * x          → 0
//	x / 1                 → x
//	x / x                 → 1        (structurally identical subtrees)
//	0 / x                 → 0
//	--x                   → x
//	neg(lit)              → folded literal
//	log(exp(x))           → x
//	exp(log(x))           → x        (valid for the guarded variants up to eps)
//	min/max of literals   → folded; duplicate literal operands collapsed
//
// Simplification never removes Param or Var nodes other than via the x-x
// and x/x rules, so the parameter footprint of a model can only shrink in
// ways that are algebraically justified.
//
// The result is also the canonical form: the operand normalizations
// (literals to the right of commutative operators, associative literal
// folding) make structurally equal revisions render identically, and the
// rendering Simplify(t).String() is the tree-cache key. Simplify is
// idempotent — Simplify(Simplify(t)) is structurally identical to
// Simplify(t) — which the property tests enforce; cache identity depends
// on it.
func Simplify(n *Node) *Node {
	return simplify(n.Clone())
}

// SimplifyOwned is Simplify without the defensive copy: it rewrites the
// tree in place and returns the (possibly different) root. The caller must
// exclusively own n — typically a freshly derived tree — and must use only
// the returned root afterwards. This is the evaluator cold path's variant:
// deriving produces a throwaway tree, so cloning it again before
// simplification only feeds the garbage collector.
func SimplifyOwned(n *Node) *Node {
	return simplify(n)
}

func simplify(n *Node) *Node {
	for i, k := range n.Kids {
		n.Kids[i] = simplify(k)
	}
	switch n.Kind {
	case Unary:
		return simplifyUnary(n)
	case Binary:
		return simplifyBinary(n)
	case Nary:
		return simplifyNary(n)
	}
	return n
}

func isLit(n *Node, v float64) bool { return n.Kind == Lit && n.Val == v }

// structEq reports structural equality of two trees, ignoring grammar
// labels (Sym) so that revision markers do not block simplification.
func structEq(a, b *Node) bool {
	if a.Kind != b.Kind || a.Op != b.Op || a.Name != b.Name || len(a.Kids) != len(b.Kids) {
		return false
	}
	if a.Kind == Lit && a.Val != b.Val {
		return false
	}
	for i := range a.Kids {
		if !structEq(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func simplifyUnary(n *Node) *Node {
	k := n.Kids[0]
	switch n.Op {
	case OpNeg:
		if k.Kind == Lit {
			return NewLit(-k.Val)
		}
		if k.Kind == Unary && k.Op == OpNeg {
			return k.Kids[0]
		}
	case OpLog:
		if k.Kind == Lit {
			return NewLit(SafeLog(k.Val))
		}
		if k.Kind == Unary && k.Op == OpExp {
			return k.Kids[0]
		}
	case OpExp:
		if k.Kind == Lit {
			return NewLit(SafeExp(k.Val))
		}
		if k.Kind == Unary && k.Op == OpLog {
			return k.Kids[0]
		}
	}
	return n
}

func simplifyBinary(n *Node) *Node {
	a, b := n.Kids[0], n.Kids[1]
	if a.Kind == Lit && b.Kind == Lit {
		switch n.Op {
		case OpAdd:
			return NewLit(a.Val + b.Val)
		case OpSub:
			return NewLit(a.Val - b.Val)
		case OpMul:
			return NewLit(a.Val * b.Val)
		case OpDiv:
			return NewLit(SafeDiv(a.Val, b.Val))
		}
	}
	switch n.Op {
	case OpAdd:
		if isLit(a, 0) {
			return b
		}
		if isLit(b, 0) {
			return a
		}
		if f := foldCommutative(n, OpAdd, func(x, y float64) float64 { return x + y }); f != nil {
			return f
		}
	case OpSub:
		if isLit(b, 0) {
			return a
		}
		if structEq(a, b) && pure(a) {
			return NewLit(0)
		}
	case OpMul:
		if isLit(a, 1) {
			return b
		}
		if isLit(b, 1) {
			return a
		}
		if isLit(a, 0) || isLit(b, 0) {
			return NewLit(0)
		}
		if f := foldCommutative(n, OpMul, func(x, y float64) float64 { return x * y }); f != nil {
			return f
		}
	case OpDiv:
		if isLit(b, 1) {
			return a
		}
		if isLit(a, 0) {
			return NewLit(0)
		}
		if structEq(a, b) && pure(a) {
			return NewLit(1)
		}
	}
	return n
}

// foldCommutative canonicalizes a commutative binary node (op ∈ {+, ×}):
// a literal operand moves to the right, and nested literals combine
// associatively — (x op c1) op c2 → x op fold(c1, c2), c1 op (x op c2) →
// x op fold(c1, c2). It returns nil when no rewrite applies. Both the
// canonical operand order and the folding raise tree-cache hit rates by
// collapsing syntactically different but equal revisions.
func foldCommutative(n *Node, op Op, fold func(x, y float64) float64) *Node {
	a, b := n.Kids[0], n.Kids[1]
	// Literal to the right.
	if a.Kind == Lit && b.Kind != Lit {
		n.Kids[0], n.Kids[1] = b, a
		a, b = n.Kids[0], n.Kids[1]
	}
	if b.Kind != Lit {
		return nil
	}
	// (x op c1) op c2 → x op fold(c1, c2).
	if a.Kind == Binary && a.Op == op && a.Kids[1].Kind == Lit {
		merged := NewBinary(op, a.Kids[0], NewLit(fold(a.Kids[1].Val, b.Val)))
		return simplify(merged)
	}
	return nil
}

// pure reports whether the tree contains no substitution sites or foot
// nodes, i.e. whether collapsing duplicate copies of it is meaningful.
func pure(n *Node) bool {
	ok := true
	n.Walk(func(m *Node) bool {
		if m.Kind == SubSite || m.Kind == Foot {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func simplifyNary(n *Node) *Node {
	// Fold literal operands together and drop structural duplicates.
	litSeen := false
	litVal := 0.0
	var kept []*Node
	for _, k := range n.Kids {
		if k.Kind == Lit {
			if !litSeen {
				litSeen, litVal = true, k.Val
			} else if n.Op == OpMin {
				litVal = math.Min(litVal, k.Val)
			} else {
				litVal = math.Max(litVal, k.Val)
			}
			continue
		}
		dup := false
		for _, e := range kept {
			if structEq(e, k) {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, k)
		}
	}
	if litSeen {
		kept = append(kept, NewLit(litVal))
	}
	if len(kept) == 1 {
		return kept[0]
	}
	n.Kids = kept
	return n
}
