// Package gggp implements the GGGP baseline of Section IV-B4: grammar
// guided genetic programming performing model revision with a context-free
// expression grammar instead of TAG. Like GMR it receives the biological
// process of equations (1) and (2) as input and evolves both structure and
// parameters; unlike GMR, revisions are whole CFG expression trees attached
// at the extension points (no adjunction-based incremental growth and no
// insertion/deletion local search), with grammar-typed subtree crossover
// and mutation.
package gggp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/grammar"
	"gmr/internal/stats"
)

// Individual is one GGGP candidate: an optional revision expression per
// extension point plus the constant-parameter vector.
type Individual struct {
	// Slots maps extension ID → revision expression (nil/absent = no
	// revision at that point). Expressions use only the extension's
	// Table II variables and R literals.
	Slots map[int]*expr.Node
	// Params is the Table III constant vector.
	Params []float64
	// Fitness is the training RMSE; +Inf until evaluated.
	Fitness   float64
	Evaluated bool
}

// Clone deep-copies the individual.
func (ind *Individual) Clone() *Individual {
	cp := &Individual{
		Slots:     make(map[int]*expr.Node, len(ind.Slots)),
		Params:    append([]float64(nil), ind.Params...),
		Fitness:   ind.Fitness,
		Evaluated: ind.Evaluated,
	}
	for k, v := range ind.Slots {
		cp.Slots[k] = v.Clone()
	}
	return cp
}

func (ind *Individual) invalidate() {
	ind.Fitness = math.Inf(1)
	ind.Evaluated = false
}

// GGGP settings fixed by Appendix B (the GMR configuration); no caller
// varies them.
const (
	// maxDepth bounds slot-expression depth.
	maxDepth = 5
	// tournamentSize is the selection tournament size.
	tournamentSize = 5
	// eliteSize individuals are copied unchanged into the next generation.
	eliteSize = 2
)

// Operator probabilities (paper: 0.3/0.3/0.3/0.1). They are variables,
// not constants, because Run adds them in float64 at run time: the sum is
// 0.9999999999999999 and the second partial sum 0.8999999999999999, where
// untyped constant arithmetic would give exactly 1 and 0.9 and move the
// selection thresholds.
var pCrossover, pSubtreeMut, pGaussMut, pReplication = 0.3, 0.3, 0.3, 0.1

// Config holds the GGGP settings (Appendix B: same configuration as GMR,
// with a 6× population compensating for GMR's local-search evaluations).
// Revisions follow the Table II spec and parameters the Table III priors;
// the Gaussian-mutation σ ramps down over the final MaxGen/4 generations.
type Config struct {
	PopSize, MaxGen int
	Seed            int64
	// InitParams, when non-nil, is the starting parameter vector for
	// every individual (e.g. pre-calibrated values — the same input the
	// GMR framework receives). Nil means the Table III means.
	InitParams []float64
}

func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 1200
	}
	if c.MaxGen == 0 {
		c.MaxGen = 100
	}
	return c
}

// growExpr generates a random CFG expression for an extension: the
// productions are E → E op E | log(E) | exp(E) | var | R.
func growExpr(rng *rand.Rand, ext grammar.Extension, depth int) *expr.Node {
	if depth <= 0 || rng.Float64() < 0.35 {
		k := rng.Intn(len(ext.Vars) + 1)
		if k == len(ext.Vars) {
			return expr.NewLit(rng.Float64())
		}
		return expr.NewVar(ext.Vars[k])
	}
	op := ext.Extenders[rng.Intn(len(ext.Extenders))]
	switch op {
	case expr.OpLog, expr.OpExp:
		return expr.NewUnary(op, growExpr(rng, ext, depth-1))
	default:
		return expr.NewBinary(op, growExpr(rng, ext, depth-1), growExpr(rng, ext, depth-1))
	}
}

// Assemble builds the revised process expressions: each occupied slot wraps
// the extension point of the manual process with its connector operator and
// the slot's expression.
func Assemble(ind *Individual, exts []grammar.Extension) (phy, zoo *expr.Node, err error) {
	phy, zoo = bio.PhyDeriv(), bio.ZooDeriv()
	byID := map[int]grammar.Extension{}
	for _, e := range exts {
		byID[e.ID] = e
	}
	apply := func(root *expr.Node) *expr.Node {
		out := root
		for id, rev := range ind.Slots {
			e, ok := byID[id]
			if !ok || rev == nil {
				continue
			}
			sym := e.ConnectorSym()
			if out.Sym == sym {
				out = expr.NewBinary(e.Connector, out, rev.Clone())
				continue
			}
			out.Walk(func(n *expr.Node) bool {
				if n.Sym == sym {
					orig := *n
					wrapped := expr.NewBinary(e.Connector, &orig, rev.Clone())
					*n = *wrapped
					return false
				}
				return true
			})
		}
		return out
	}
	phy = apply(phy)
	zoo = apply(zoo)
	return phy, zoo, nil
}

// slotNode addresses a node inside a slot expression for crossover.
type slotNode struct {
	id     int
	parent *expr.Node
	child  int // -1 when the node is the slot root
}

func collectNodes(ind *Individual) []slotNode {
	ids := make([]int, 0, len(ind.Slots))
	for id := range ind.Slots {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []slotNode
	for _, id := range ids {
		root := ind.Slots[id]
		if root == nil {
			continue
		}
		out = append(out, slotNode{id, nil, -1})
		root.Walk(func(n *expr.Node) bool {
			for i := range n.Kids {
				out = append(out, slotNode{id, n, i})
			}
			return true
		})
	}
	return out
}

func (s slotNode) get(ind *Individual) *expr.Node {
	if s.child < 0 {
		return ind.Slots[s.id]
	}
	return s.parent.Kids[s.child]
}

func (s slotNode) set(ind *Individual, n *expr.Node) {
	if s.child < 0 {
		ind.Slots[s.id] = n
	} else {
		s.parent.Kids[s.child] = n
	}
}

// Run executes the GGGP model-revision baseline against the given
// evaluator function (training RMSE of assembled process expressions).
func Run(cfg Config, fitness func(phy, zoo *expr.Node, params []float64) float64) (*Individual, error) {
	cfg = cfg.withDefaults()
	if fitness == nil {
		return nil, fmt.Errorf("gggp: fitness function required")
	}
	rng := stats.NewRand(cfg.Seed)
	exts := grammar.DefaultExtensions()
	consts := bio.DefaultConstants()
	means := bio.Means(consts)
	if cfg.InitParams != nil {
		means = append([]float64(nil), cfg.InitParams...)
	}

	evaluate := func(ind *Individual) {
		phy, zoo, err := Assemble(ind, exts)
		if err != nil {
			ind.Fitness = math.Inf(1)
			ind.Evaluated = true
			return
		}
		ind.Fitness = fitness(phy, zoo, ind.Params)
		ind.Evaluated = true
	}

	newRandom := func() *Individual {
		ind := &Individual{Slots: map[int]*expr.Node{}, Params: append([]float64(nil), means...), Fitness: math.Inf(1)}
		// Start from the input process with a few random revisions —
		// knowledge-based initialization like GMR's.
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			e := exts[rng.Intn(len(exts))]
			ind.Slots[e.ID] = growExpr(rng, e, 1+rng.Intn(maxDepth-1))
		}
		return ind
	}

	pop := make([]*Individual, cfg.PopSize)
	for i := range pop {
		pop[i] = newRandom()
		evaluate(pop[i])
	}
	sortPop(pop)
	best := pop[0].Clone()

	extByID := map[int]grammar.Extension{}
	for _, e := range exts {
		extByID[e.ID] = e
	}
	tournament := func() *Individual {
		b := pop[rng.Intn(len(pop))]
		for i := 1; i < tournamentSize; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.Fitness < b.Fitness {
				b = c
			}
		}
		return b
	}

	for gen := 1; gen <= cfg.MaxGen; gen++ {
		sigma := sigmaScale(gen, cfg.MaxGen)
		next := make([]*Individual, 0, cfg.PopSize)
		for i := 0; i < eliteSize; i++ {
			next = append(next, pop[i].Clone())
		}
		for len(next) < cfg.PopSize {
			r := rng.Float64() * (pCrossover + pSubtreeMut + pGaussMut + pReplication)
			var child *Individual
			switch {
			case r < pCrossover:
				child = crossover(rng, tournament(), tournament())
			case r < pCrossover+pSubtreeMut:
				child = subtreeMutate(rng, tournament(), extByID)
			case r < pCrossover+pSubtreeMut+pGaussMut:
				child = gaussMutate(rng, tournament(), consts, sigma)
			default:
				child = tournament().Clone()
			}
			if !child.Evaluated {
				evaluate(child)
			}
			next = append(next, child)
		}
		pop = next
		sortPop(pop)
		if pop[0].Fitness < best.Fitness {
			best = pop[0].Clone()
		}
	}
	return best, nil
}

// crossover swaps grammar-compatible subtrees: both nodes must come from
// the same extension (same nonterminal type), so the Table II variable
// constraints are preserved.
func crossover(rng *rand.Rand, a, b *Individual) *Individual {
	c := a.Clone()
	d := b.Clone()
	na, nb := collectNodes(c), collectNodes(d)
	for try := 0; try < 10; try++ {
		if len(na) == 0 || len(nb) == 0 {
			break
		}
		sa := na[rng.Intn(len(na))]
		sb := nb[rng.Intn(len(nb))]
		if sa.id != sb.id {
			continue
		}
		sub := sb.get(d).Clone()
		sa.set(c, sub)
		c.invalidate()
		return c
	}
	// No compatible pair: copy a slot from b wholesale (deterministic
	// choice: lowest occupied extension ID).
	if id, ok := firstSlot(d); ok {
		c.Slots[id] = d.Slots[id].Clone()
		c.invalidate()
	}
	return c
}

// subtreeMutate regrows a random subtree (or adds/drops a whole slot).
func subtreeMutate(rng *rand.Rand, p *Individual, exts map[int]grammar.Extension) *Individual {
	c := p.Clone()
	c.invalidate()
	nodes := collectNodes(c)
	roll := rng.Float64()
	switch {
	case roll < 0.2 || len(nodes) == 0:
		// Add or replace a whole slot.
		ids := make([]int, 0, len(exts))
		for id := range exts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		id := ids[rng.Intn(len(ids))]
		c.Slots[id] = growExpr(rng, exts[id], 1+rng.Intn(maxDepth-1))
	case roll < 0.3:
		// Drop a slot (revision removal; deterministic choice).
		if id, ok := firstSlot(c); ok {
			delete(c.Slots, id)
		}
	default:
		s := nodes[rng.Intn(len(nodes))]
		depth := 1 + rng.Intn(maxDepth-1)
		s.set(c, growExpr(rng, exts[s.id], depth))
	}
	return c
}

// gaussMutate perturbs constants exactly as GMR does (Section III-B3).
func gaussMutate(rng *rand.Rand, p *Individual, consts []bio.Constant, sigma float64) *Individual {
	c := p.Clone()
	c.invalidate()
	for i, cc := range consts {
		c.Params[i] = stats.TruncGauss(rng, c.Params[i], sigma*cc.Mean/4, cc.Min, cc.Max)
	}
	ids := make([]int, 0, len(c.Slots))
	for id := range c.Slots {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		root := c.Slots[id]
		if root == nil {
			continue
		}
		root.Walk(func(n *expr.Node) bool {
			if n.Kind == expr.Lit {
				s := math.Abs(n.Val) / 4
				if s < 0.25 {
					s = 0.25
				}
				n.Val += sigma * s * rng.NormFloat64()
			}
			return true
		})
	}
	return c
}

// sigmaScale ramps the Gaussian-mutation σ down linearly over the final
// maxGen/4 generations, from 1 to 0.1.
func sigmaScale(gen, maxGen int) float64 {
	ramp := maxGen / 4
	start := maxGen - ramp
	if gen < start || ramp <= 0 {
		return 1
	}
	return 1 - 0.9*float64(gen-start)/float64(ramp)
}

// firstSlot returns the lowest occupied extension ID.
func firstSlot(ind *Individual) (int, bool) {
	bestID, found := 0, false
	for id, rev := range ind.Slots {
		if rev == nil {
			continue
		}
		if !found || id < bestID {
			bestID, found = id, true
		}
	}
	return bestID, found
}

func sortPop(pop []*Individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].Fitness < pop[j].Fitness })
}
