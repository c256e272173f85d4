package expr

import (
	"fmt"
	"math"
)

// Guarded-arithmetic limits. Evolutionary search routinely produces
// divisions by near-zero and huge exponents; the guards below keep
// evaluation total (no NaN/Inf panics) while preserving the semantics of
// well-behaved expressions. The same guards are applied by both the tree
// interpreter and the compiled register VM so the two evaluators agree.
const (
	// divEps is the smallest denominator magnitude used by protected
	// division.
	divEps = 1e-12
	// expClamp bounds the argument of the exponential.
	expClamp = 50.0
)

// SafeDiv is the protected division used throughout the library.
func SafeDiv(a, b float64) float64 {
	if math.Abs(b) < divEps {
		if b < 0 {
			b = -divEps
		} else {
			b = divEps
		}
	}
	return a / b
}

// SafeLog is the protected natural logarithm: log(|x| + eps).
func SafeLog(x float64) float64 {
	return math.Log(math.Abs(x) + divEps)
}

// SafeExp is the clamped exponential: exp(clamp(x, ±50)).
func SafeExp(x float64) float64 {
	if x > expClamp {
		x = expClamp
	} else if x < -expClamp {
		x = -expClamp
	}
	return math.Exp(x)
}

// Env supplies values for Var and Param nodes during evaluation. Bound
// nodes (Index >= 0) are served from the slices; unbound nodes fall back to
// the name maps, which may be nil.
type Env struct {
	Vars   []float64
	Params []float64
	// VarByName and ParamByName serve unbound nodes, mainly in tests and
	// one-off evaluations where Bind has not been run.
	VarByName   map[string]float64
	ParamByName map[string]float64
}

// Eval evaluates the completed tree rooted at n under env. Evaluating a
// substitution site or foot node returns an error, as does an unbound name
// missing from the fallback maps.
func (n *Node) Eval(env *Env) (float64, error) {
	switch n.Kind {
	case Lit:
		return n.Val, nil
	case Param:
		if n.Index >= 0 {
			if n.Index >= len(env.Params) {
				return 0, fmt.Errorf("expr: param %q index %d out of range", n.Name, n.Index)
			}
			return env.Params[n.Index], nil
		}
		v, ok := env.ParamByName[n.Name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound param %q", n.Name)
		}
		return v, nil
	case Var:
		if n.Index >= 0 {
			if n.Index >= len(env.Vars) {
				return 0, fmt.Errorf("expr: var %q index %d out of range", n.Name, n.Index)
			}
			return env.Vars[n.Index], nil
		}
		v, ok := env.VarByName[n.Name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound var %q", n.Name)
		}
		return v, nil
	case Unary:
		a, err := n.Kids[0].Eval(env)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case OpNeg:
			return -a, nil
		case OpLog:
			return SafeLog(a), nil
		case OpExp:
			return SafeExp(a), nil
		}
		return 0, fmt.Errorf("expr: bad unary op %s", n.Op)
	case Binary:
		a, err := n.Kids[0].Eval(env)
		if err != nil {
			return 0, err
		}
		b, err := n.Kids[1].Eval(env)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case OpAdd:
			return a + b, nil
		case OpSub:
			return a - b, nil
		case OpMul:
			return a * b, nil
		case OpDiv:
			return SafeDiv(a, b), nil
		}
		return 0, fmt.Errorf("expr: bad binary op %s", n.Op)
	case Nary:
		best, err := n.Kids[0].Eval(env)
		if err != nil {
			return 0, err
		}
		for _, k := range n.Kids[1:] {
			v, err := k.Eval(env)
			if err != nil {
				return 0, err
			}
			if (n.Op == OpMin && v < best) || (n.Op == OpMax && v > best) {
				best = v
			}
		}
		return best, nil
	case SubSite:
		return 0, fmt.Errorf("expr: cannot evaluate open substitution site %q", n.Sym)
	case Foot:
		return 0, fmt.Errorf("expr: cannot evaluate foot node %q", n.Sym)
	}
	return 0, fmt.Errorf("expr: unknown node kind %d", n.Kind)
}

// MustEval is Eval for trees known to be completed and bound; it panics on
// error. Intended for tests and internal invariant checks.
func (n *Node) MustEval(env *Env) float64 {
	v, err := n.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// Bind resolves every Param and Var node's Index through the given
// name→index maps. Names missing from a nil-safe map are reported as an
// error; Bind is all-or-nothing only per node (already-visited nodes keep
// their indices), so callers should treat an error as fatal for the tree.
func Bind(root *Node, varIndex, paramIndex map[string]int) error {
	var err error
	root.Walk(func(m *Node) bool {
		if err != nil {
			return false
		}
		switch m.Kind {
		case Var:
			i, ok := varIndex[m.Name]
			if !ok {
				err = fmt.Errorf("expr: no index for variable %q", m.Name)
				return false
			}
			m.Index = i
		case Param:
			i, ok := paramIndex[m.Name]
			if !ok {
				err = fmt.Errorf("expr: no index for parameter %q", m.Name)
				return false
			}
			m.Index = i
		}
		return true
	})
	return err
}
