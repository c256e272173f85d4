// Package gp implements the TAG3P evolutionary engine of the GMR framework
// (Section III-B): a population of TAG derivation trees plus constant
// parameters, evolved by tournament selection, elitism, grammar-respecting
// crossover and subtree mutation, Gaussian mutation of constants, and
// stochastic hill-climbing local search via insertion/deletion.
package gp

import (
	"math"

	"gmr/internal/expr"
	"gmr/internal/tag"
)

// Individual is one candidate model: a derivation tree (structure) and a
// constant-parameter vector (Table III values). Random constants (R) in
// revisions live as literal leaves inside the derivation tree's lexemes.
type Individual struct {
	Deriv  *tag.DerivNode
	Params []float64

	// Fitness is the evaluated training fitness (lower is better);
	// +Inf until evaluated.
	Fitness float64
	// Evaluated reports whether Fitness is meaningful.
	Evaluated bool
	// FullEval reports whether the last evaluation ran every fitness
	// case (false when evaluation was short-circuited).
	FullEval bool

	// structKey memoizes the evaluator's canonical structure key ("" =
	// unknown) so param-only re-evaluations skip re-deriving and
	// re-printing the tree. It survives Clone, replication, and
	// parameter-only Gaussian mutation, and is cleared by every
	// structural edit (and by literal perturbations, which change the
	// derived expression). See evalx's tier-1 structure cache.
	structKey string
}

// NewIndividual wraps a derivation tree and parameter vector with an
// unevaluated fitness.
func NewIndividual(d *tag.DerivNode, params []float64) *Individual {
	return &Individual{Deriv: d, Params: append([]float64(nil), params...), Fitness: math.Inf(1)}
}

// Clone deep-copies the individual, including its evaluation state and
// memoized structure key.
func (ind *Individual) Clone() *Individual {
	return &Individual{
		Deriv:     ind.Deriv.Clone(),
		Params:    append([]float64(nil), ind.Params...),
		Fitness:   ind.Fitness,
		Evaluated: ind.Evaluated,
		FullEval:  ind.FullEval,
		structKey: ind.structKey,
	}
}

// Invalidate marks the individual as needing re-evaluation after a
// parameter change. The memoized structure key is kept: parameter moves do
// not change the derived structure.
func (ind *Individual) Invalidate() {
	ind.Fitness = math.Inf(1)
	ind.Evaluated = false
	ind.FullEval = false
}

// InvalidateStructure marks the individual as needing re-evaluation after
// a structural edit (crossover subtree swap, subtree mutation, insertion,
// deletion, literal perturbation): fitness AND the memoized structure key
// are discarded.
func (ind *Individual) InvalidateStructure() {
	ind.Invalidate()
	ind.structKey = ""
}

// StructKey returns the memoized canonical structure key, or "" when it
// has not been computed since the last structural edit.
func (ind *Individual) StructKey() string { return ind.structKey }

// SetStructKey memoizes the canonical structure key computed by an
// evaluator. Callers other than evaluators should not use this.
func (ind *Individual) SetStructKey(k string) { ind.structKey = k }

// Size returns the derivation-tree size (the paper's chromosome size).
func (ind *Individual) Size() int { return ind.Deriv.Size() }

// RLiterals returns pointers to every random-constant literal in the
// individual's lexemes, the mutable revision constants targeted by Gaussian
// mutation alongside Params.
func (ind *Individual) RLiterals() []*expr.Node {
	var lits []*expr.Node
	ind.Deriv.Walk(func(n, _ *tag.DerivNode) bool {
		for _, l := range n.Lexemes {
			l.Walk(func(m *expr.Node) bool {
				if m.Kind == expr.Lit {
					lits = append(lits, m)
				}
				return true
			})
		}
		return true
	})
	return lits
}

// Evaluator scores individuals. Implementations must be safe for
// concurrent Evaluate calls between BeginBatch and EndBatch; the engine
// freezes any shared evaluation state (e.g. the short-circuiting
// threshold's best-previous-full fitness) across a batch by calling the
// batch hooks.
type Evaluator interface {
	// BeginBatch snapshots shared state for a deterministic batch.
	BeginBatch()
	// Evaluate computes and stores the individual's fitness.
	Evaluate(ind *Individual)
	// EndBatch commits state accumulated during the batch.
	EndBatch()
}

// ClusterEvaluator is optionally implemented by evaluators that can score
// many individuals of one structure in one call. The engine's generation
// loop uses it to partition each population by memoized structure key and
// dispatch every cluster through the lane-batched kernel (DESIGN.md §14),
// and champion refinement uses it to score each round's parameter-only
// proposals as one chunk, amortizing structure resolution and
// loop-invariant (exogenous) hoisting across the sweep (DESIGN.md §10).
// The engine scores a plain Evaluator one individual at a time through the
// same scheduler.
//
// EvaluateCluster and EvaluateParamBatch score a chunk of same-structure
// individuals in slice order, skip members already evaluated, commit each
// result onto its individual, and share one panic protocol: when a
// member's evaluation panics (injected faults), every earlier member's
// result is committed before the panic escapes, so the first unevaluated
// member in slice order is the panicker. The engine quarantines it and
// re-invokes the same method on the remainder.
type ClusterEvaluator interface {
	Evaluator
	// ResolveStruct resolves the individual's executable structure through
	// the evaluator's structure cache and memoizes the canonical key on the
	// individual (StructKey), without simulating. It must count exactly the
	// resolution work that the front of a plain Evaluate call would count,
	// because EvaluateCluster skips that step: one ResolveStruct followed by
	// a one-member EvaluateCluster must leave the same counter trail as
	// Evaluate, and a larger cluster the trail of its members' Evaluate
	// calls.
	ResolveStruct(ind *Individual)
	// NoteCluster records one scheduled evaluation cluster of the given
	// size (telemetry only: cluster counts, scalar fallbacks, and the
	// cluster-size histogram).
	NoteCluster(size int)
	// EvaluateCluster scores one population cluster — individuals sharing
	// one memoized structure key, or a single key-less individual — with
	// semantics equivalent to sequential Evaluate calls in slice order:
	// identical fitnesses, quarantine classification, fault-injection
	// sites, and fitness-cache interactions.
	EvaluateCluster(inds []*Individual)
	// EvaluateParamBatch scores a parameter sweep: parameter-only variants
	// of inds[0]'s structure, resolved once for the call. Each member gets
	// the fitness and fault behavior its own Evaluate call would give, but
	// the sweep reads the fitness cache without writing to it. It must be
	// safe for concurrent calls between BeginBatch and EndBatch.
	EvaluateParamBatch(inds []*Individual)
}

// Prior is the Gaussian-mutation prior of one constant parameter: its
// expected value and exploration bounds (a Table III row), per Section
// III-B3.
type Prior struct {
	Mean, Min, Max float64
}
