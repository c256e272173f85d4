// Package evalx implements fitness evaluation for revised river processes,
// together with the paper's three orthogonal speedup techniques (Section
// III-D):
//
//   - Evaluation short-circuiting (Algorithm 1): incremental fitness over
//     the time series is compared against the best previously fully
//     evaluated fitness scaled by a threshold; once the extrapolated final
//     fitness cannot beat it, evaluation stops and the extrapolation is
//     used as a surrogate fitness.
//   - Tree caching: a two-tier cache. Tier 1 keys on the canonical
//     simplified *structure* and memoizes the derived+simplified+bound+
//     compiled program pair, so re-evaluating the same structure with
//     different constants (Gaussian mutation, local search, elite
//     refinement) skips the whole derive→simplify→bind→compile pipeline.
//     Tier 2 keys on (structure, params) and memoizes the fitness itself.
//     Simplification raises the hit rate of both tiers.
//   - Runtime compilation: derivative trees are compiled to the segmented
//     register VM instead of being re-interpreted node by node (the
//     portable equivalent of the paper's C++ emission, DESIGN.md §3, §10).
//     Compiled programs are immutable and shared across goroutines;
//     register files live in per-goroutine scratch.
//
// Both cache tiers are sharded (striped locks keyed by hash) and the work
// counters are atomics, so a large parallel batch does not serialize on a
// single evaluator mutex.
//
// Evaluate, EvaluateCluster and EvaluateParamBatch each resolve their
// structure once and score their members through one pipeline (run):
// admit in input order, score the misses (one KernelLanes call for a
// compiled structure), commit in input order onto the individuals.
//
// The Evaluator implements gp.Evaluator with deterministic batch semantics:
// the short-circuiting reference fitness is frozen for the duration of a
// batch and updated at the batch boundary, so parallel evaluation order
// cannot change results.
package evalx

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/faultinject"
	"gmr/internal/fnv"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
)

// Options selects the speedups and the simulation regime.
type Options struct {
	// UseCache enables the two-tier tree cache (structure tier +
	// fitness tier). Both tiers key on the algebraically simplified
	// canonical form, so UseCache also simplifies every structure before
	// evaluation; without it the derived trees run as they are.
	UseCache bool
	// UseShortCircuit enables evaluation short-circuiting.
	UseShortCircuit bool
	// Threshold is Algorithm 1's eagerness knob: intermediate fitness is
	// compared against bestPrevFull×Threshold. Zero means 1.0.
	Threshold float64
	// UseCompile selects runtime compilation onto the segmented register
	// VM (DESIGN.md §10) over tree interpretation. With UseCache the
	// compiled structure and its hoisted exogenous plan are reused across
	// evaluations; without it both are rebuilt for every evaluation.
	UseCompile bool
	// Sim is the integration configuration; Phy0/Zoo0 should be the
	// observed initial biomasses of the evaluation period.
	Sim bio.SimConfig
	// Faults, when non-nil, injects deterministic faults into the
	// evaluation pipeline (chaos testing): worker panics before
	// evaluation, NaN poison in one simulation step, artificial latency.
	// Decisions are pure functions of (fault seed, site hash), where the
	// site hash derives from the evaluation input — the (structure,
	// params) cache key — so the same run with the same fault seed
	// injects the same faults regardless of worker count or cache
	// warmth. A nil injector costs one nil check per evaluation.
	Faults *faultinject.Injector
	// Tracer records one span per KernelLanes chunk of a compiled
	// structure: evalx.simulate for a one-member chunk (the scalar loop),
	// evalx.lane_batch for a lane launch of two or more members. Together
	// they cover the kernel time, plan block fills included; the tree
	// interpreter records no span. A nil tracer is the zero-cost disabled
	// path (no allocations); an enabled tracer ring-buffers every span
	// (see internal/obs).
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 1.0
	}
	return o
}

// AllSpeedups returns Options with caching (and so simplification),
// short-circuiting (threshold 1.0) and compilation all enabled.
func AllSpeedups(sim bio.SimConfig) Options {
	return Options{UseCache: true, UseShortCircuit: true, UseCompile: true, Sim: sim}
}

// Reason classifies why an evaluation was quarantined: the candidate's
// fitness was forced to +Inf instead of a simulated RMSE. Quarantine is the
// numeric firewall of the pipeline — grammar-generated models routinely
// diverge, overflow, or collapse to NaN, and the reason codes turn those
// failures into counted, telemetered events instead of silent poison.
type Reason uint8

const (
	// ReasonOK: not quarantined.
	ReasonOK Reason = iota
	// ReasonNaN: the simulated state became NaN (including injected NaN
	// poison).
	ReasonNaN
	// ReasonInf: the simulated state overflowed to ±Inf (clamping
	// disabled or unbounded), i.e. numeric overflow.
	ReasonInf
	// ReasonBadStructure: the derivation failed to derive, split, bind,
	// or compile.
	ReasonBadStructure

	numReasons
)

// String returns the telemetry name of the reason code.
func (r Reason) String() string {
	switch r {
	case ReasonOK:
		return "ok"
	case ReasonNaN:
		return "nan"
	case ReasonInf:
		return "inf"
	case ReasonBadStructure:
		return "bad_structure"
	default:
		return "?"
	}
}

// Evaluator scores gp.Individuals by simulating their revised process over
// the training window and measuring RMSE against observations. It is safe
// for concurrent Evaluate calls between BeginBatch and EndBatch.
type Evaluator struct {
	forcing [][]float64
	obs     []float64
	consts  []bio.Constant
	opts    Options

	shards [cacheShards]cacheShard
	ctr    counters

	// tracer records one span per kernel chunk; a nil tracer costs one
	// nil check per chunk (see Options.Tracer).
	tracer *obs.Tracer

	// frozenBits is the short-circuiting reference for the current
	// batch (math.Float64bits), written only at batch boundaries and
	// read on every evaluation.
	frozenBits atomic.Uint64

	batchMu      sync.Mutex
	bestPrevFull float64 // committed reference (updated at batch ends)
	pendingBest  float64 // best full fitness seen in the current batch

	scratch sync.Pool // of *evalScratch
}

// evalScratch is the per-goroutine reusable state of one pipeline call
// (see run), reused so steady-state calls allocate nothing.
type evalScratch struct {
	sim     bio.SimScratch
	members []member // the call's members, input order
	// chunk backs members up to one lane chunk, so a fresh scratch (a
	// sync.Pool miss) holds a chunk without growing a slice.
	chunk [expr.Lanes]member
	// keys holds the simulated members' tier-2 keys back to back
	// (member.keyOff/keyLen index into it), so the commit can insert
	// without re-rendering.
	keys   []byte
	miss   []int       // indexes of the members to simulate
	dups   []dupPair   // intra-call duplicates of a simulated member
	params [][]float64 // the kernel's parameter vectors
}

// key is simulated member m's tier-2 key.
func (sc *evalScratch) key(m *member) []byte {
	return sc.keys[m.keyOff : m.keyOff+m.keyLen]
}

// dupPair marks an intra-call duplicate: member dst's tier-2 key is
// byte-identical to simulated member src's, so dst adopts src's result as
// a tier-2 cache hit (what sequential evaluation order would produce).
type dupPair struct {
	dst, src int
}

// cacheEntry is a tier-2 record: the memoized fitness of one
// (structure, params) pair.
type cacheEntry struct {
	fitness float64
	full    bool
}

// structEntry is a tier-1 record: the executable form of one canonical
// structure, shared by all evaluations of that structure.
type structEntry struct {
	tree *bio.System // interpreted (UseCompile off); concurrent-safe
	bad  bool        // structure failed to bind or compile

	// Segmented register VM (DESIGN.md §10), under UseCompile: seg is the
	// compiled register program; plan is the tier-1.5 exogenous matrix for
	// this evaluator's forcing series, opened with the entry and filled on
	// demand by the kernels. An evaluator owns exactly one dataset, so the
	// (structure, dataset) cache key reduces to the structure — the plan
	// can hang off the tier-1 entry. opened marks its first simulation.
	seg    *bio.SegSystem
	plan   *bio.ExogPlan
	opened atomic.Bool
}

// cacheShards stripes both cache tiers; must be a power of two.
const cacheShards = 64

type cacheShard struct {
	mu      sync.Mutex
	structs map[string]*structEntry
	fits    map[string]cacheEntry
}

// New builds an evaluator over the training window. forcing rows use the
// bio variable layout; obs is the observed phytoplankton biomass.
func New(forcing [][]float64, obs []float64, consts []bio.Constant, opts Options) *Evaluator {
	o := opts.withDefaults()
	e := &Evaluator{
		forcing:      forcing,
		obs:          obs,
		consts:       consts,
		opts:         o,
		bestPrevFull: math.Inf(1),
		pendingBest:  math.Inf(1),
		tracer:       o.Tracer,
	}
	for i := range e.shards {
		e.shards[i].structs = map[string]*structEntry{}
		e.shards[i].fits = map[string]cacheEntry{}
	}
	e.frozenBits.Store(math.Float64bits(math.Inf(1)))
	e.scratch.New = func() any {
		sc := &evalScratch{}
		sc.members = sc.chunk[:0]
		return sc
	}
	return e
}

// BeginBatch freezes the short-circuiting reference for a deterministic
// parallel batch.
func (e *Evaluator) BeginBatch() {
	e.batchMu.Lock()
	e.pendingBest = math.Inf(1)
	e.frozenBits.Store(math.Float64bits(e.bestPrevFull))
	e.batchMu.Unlock()
}

// EndBatch commits the best fully evaluated fitness seen during the batch.
func (e *Evaluator) EndBatch() {
	e.batchMu.Lock()
	if e.pendingBest < e.bestPrevFull {
		e.bestPrevFull = e.pendingBest
	}
	e.frozenBits.Store(math.Float64bits(e.bestPrevFull))
	e.batchMu.Unlock()
}

// Stats returns a snapshot of the work counters.
func (e *Evaluator) Stats() Stats { return e.ctr.snapshot() }

// ShortCircuitRef returns the committed short-circuiting reference (the
// best previously fully evaluated fitness; +Inf before any full
// evaluation). It is checkpoint state: resuming a run with a fresh
// evaluator but the saved reference reproduces the original evaluator's
// short-circuit decisions for fully-simulated fitnesses.
func (e *Evaluator) ShortCircuitRef() float64 {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	return e.bestPrevFull
}

// SetShortCircuitRef restores a reference captured by ShortCircuitRef. Call
// between batches (checkpoint resume), not during one.
func (e *Evaluator) SetShortCircuitRef(f float64) {
	e.batchMu.Lock()
	e.bestPrevFull = f
	e.frozenBits.Store(math.Float64bits(f))
	e.batchMu.Unlock()
}

// Evaluate derives the individual's process, applies the configured
// speedups, and stores the resulting fitness on the individual: a
// one-member pipeline call.
func (e *Evaluator) Evaluate(ind *gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	var ent *structEntry
	var key string
	if e.opts.UseCache {
		ent, key = e.structFor(ind)
	}
	sc.members = append(sc.members[:0], member{ind: ind, params: ind.Params})
	e.run(ent, key, population, sc)
}

// policy is what a pipeline caller does with tier 2 beyond the lookup.
type policy bool

const (
	sweep      policy = false // EvaluateParamBatch: lookup only
	population policy = true  // Evaluate, EvaluateCluster: insert, and adopt intra-call duplicates
)

// gather sets sc.members to the unevaluated individuals of inds, in order,
// and returns them.
func (sc *evalScratch) gather(inds []*gp.Individual) []member {
	ms := sc.members[:0]
	for _, ind := range inds {
		if !ind.Evaluated {
			ms = append(ms, member{ind: ind, params: ind.Params})
		}
	}
	sc.members = ms
	return ms
}

// run is the one scoring pipeline behind Evaluate, EvaluateCluster and
// EvaluateParamBatch. It scores sc.members against one resolved structure,
// ent with canonical key key (ent is nil after a failed derivation); without
// UseCache each member derives and builds its own entry instead (the Fig 10
// "no TC" baseline). It has three phases:
//
//   - admit, in input order. Each member counts one evaluation; a bad
//     structure is quarantined with no fault injection. Every other member
//     takes its fault site (the hash of its tier-2 key, or of its
//     parameter bits without the cache) and meets the panic decision, the
//     injected latency and the tier-2 lookup, in that order, so every
//     fault decision is a pure function of the input, independent of cache
//     warmth. Under the population policy, a duplicate of an earlier miss
//     is set aside to adopt its result, as sequential calls would serve it
//     from tier 2;
//   - score the misses (see score);
//   - commit in input order. Duplicates adopt their source's result, every
//     result goes onto its individual, and under the population policy
//     every simulated fitness goes into tier 2.
//
// An injected panic at member i is deferred: admission stops there (i
// counted but not simulated, later members untouched), the prefix scores
// and commits, then the panic is re-raised (the gp.ClusterEvaluator panic
// protocol).
func (e *Evaluator) run(ent *structEntry, key string, pol policy, sc *evalScratch) {
	ms := sc.members
	sc.keys, sc.miss, sc.dups = sc.keys[:0], sc.miss[:0], sc.dups[:0]
	var deferred any
admit:
	for i := range ms {
		m := &ms[i]
		m.ent = ent
		if !e.opts.UseCache {
			m.ent = e.uncachedEntry(m.ind)
		}
		e.ctr[cEvaluations].Add(1)
		e.ctr[cStepsPossible].Add(int64(len(e.obs)))
		if m.ent == nil || m.ent.bad {
			e.ctr.quarantineCount(ReasonBadStructure)
			m.fitness, m.full = math.Inf(1), true
			continue
		}
		var kb []byte
		if e.opts.UseCache {
			// The key is rendered into per-goroutine scratch; map lookups
			// with string(kb) do not allocate, only a first-time insert
			// materializes the string.
			m.keyOff = len(sc.keys)
			sc.keys = appendFitKey(sc.keys, key, m.params)
			kb = sc.keys[m.keyOff:]
			m.keyLen = len(kb)
			m.site = faultinject.HashBytes(kb)
		} else {
			m.site = faultinject.HashFloats(uncachedSiteBase, m.params)
		}
		if e.opts.Faults.Hit(faultinject.Panic, m.site) {
			deferred = faultinject.InjectedPanic{Site: "evalx.Evaluate", Hash: m.site}
			ms = ms[:i]
			break
		}
		e.opts.Faults.Sleep(m.site)
		if kb != nil {
			if hit, ok := e.cachedFit(kb, m.site); ok {
				m.fitness, m.full = hit.fitness, hit.full
				sc.keys = sc.keys[:m.keyOff]
				continue
			}
			if pol == population {
				for _, j := range sc.miss {
					if bytes.Equal(sc.key(&ms[j]), kb) {
						sc.dups = append(sc.dups, dupPair{dst: i, src: j})
						sc.keys = sc.keys[:m.keyOff]
						continue admit
					}
				}
			}
		}
		m.poison = e.poisonStep(m.site)
		sc.miss = append(sc.miss, i)
	}

	// Score: the misses share ent, or without the cache own one each.
	for miss := sc.miss; len(miss) > 0; {
		n := len(miss)
		if !e.opts.UseCache {
			n = 1
		}
		e.score(ms, miss[:n], pol, sc)
		miss = miss[n:]
	}

	for _, d := range sc.dups {
		e.ctr[cCacheHits].Add(1)
		ms[d.dst].fitness, ms[d.dst].full = ms[d.src].fitness, ms[d.src].full
	}
	if pol == population && e.opts.UseCache {
		for _, i := range sc.miss {
			m := &ms[i]
			e.cacheFit(sc.key(m), m.site, m.fitness, m.full)
		}
	}
	for i := range ms {
		ind := ms[i].ind
		ind.Fitness, ind.Evaluated, ind.FullEval = ms[i].fitness, true, ms[i].full
	}
	if deferred != nil {
		panic(deferred)
	}
}

// cachedFit looks a tier-2 key up, counting a hit.
func (e *Evaluator) cachedFit(kb []byte, site uint64) (cacheEntry, bool) {
	sh := &e.shards[site&(cacheShards-1)]
	sh.mu.Lock()
	hit, ok := sh.fits[string(kb)]
	sh.mu.Unlock()
	if ok {
		e.ctr[cCacheHits].Add(1)
	}
	return hit, ok
}

// cacheFit inserts a tier-2 record; on a racing insert the first one wins.
func (e *Evaluator) cacheFit(kb []byte, site uint64, fitness float64, full bool) {
	sh := &e.shards[site&(cacheShards-1)]
	sh.mu.Lock()
	if _, ok := sh.fits[string(kb)]; !ok {
		sh.fits[string(kb)] = cacheEntry{fitness, full}
	}
	sh.mu.Unlock()
}

// uncachedEntry derives, binds and builds ind's structure afresh, for one
// evaluation of the cache-free pipeline; nil when the derivation fails.
func (e *Evaluator) uncachedEntry(ind *gp.Individual) *structEntry {
	phy, zoo, err := e.deriveSplitSimplify(ind)
	if err != nil {
		return nil
	}
	return e.buildEntry(phy, zoo)
}

// uncachedSiteBase seeds the injection site hash of the uncached pipeline
// (an arbitrary odd constant).
const uncachedSiteBase = 0x51_7e_ba_5e_0dd5_ee_d1

// EvaluateParamBatch scores a parameter sweep (gp.ClusterEvaluator): the
// unevaluated members of inds, parameter-only variants of one structure, in
// one pipeline call that resolves the structure once, from the first member,
// shares its tier-1.5 exogenous plan and runs the misses in one KernelLanes
// call. Each member gets its sequential Evaluate fitness, fault sites and
// short-circuit decision, but the sweep never inserts into tier 2, so the
// steady-state call is allocation-free. It is safe for concurrent calls
// between BeginBatch and EndBatch.
func (e *Evaluator) EvaluateParamBatch(inds []*gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	ms := sc.gather(inds)
	if len(ms) == 0 {
		return
	}
	e.ctr[cBatchCalls].Add(1)
	e.ctr[cBatchMembers].Add(int64(len(ms)))
	var ent *structEntry
	var key string
	if e.opts.UseCache {
		ent, key = e.structFor(ms[0].ind)
		if ent != nil && !ent.bad && len(ms) > 1 {
			// The remaining members share the resolved structure by
			// construction; count them as tier-1 hits so hit-rate telemetry
			// stays comparable with sequential evaluation.
			e.ctr[cTier1Hits].Add(int64(len(ms) - 1))
		}
	}
	e.run(ent, key, sweep, sc)
}

// structFor resolves the individual's executable structure through the
// tier-1 cache. The fast path uses the structure key memoized on the
// individual and touches neither the derivation tree nor the printer; the
// slow path derives, simplifies, renders the canonical key, memoizes it on
// the individual, and compiles on a cache miss.
func (e *Evaluator) structFor(ind *gp.Individual) (*structEntry, string) {
	if key := ind.StructKey(); key != "" {
		if ent := e.lookupStruct(key); ent != nil {
			e.ctr[cTier1Hits].Add(1)
			return ent, key
		}
		// The key is known but this evaluator has no entry yet;
		// compiling needs the trees, so fall through to a derive.
	}
	phy, zoo, err := e.deriveSplitSimplify(ind)
	if err != nil {
		return nil, ""
	}
	key := renderKey(phy, zoo)
	ind.SetStructKey(key)
	if ent := e.lookupStruct(key); ent != nil {
		e.ctr[cTier1Hits].Add(1)
		return ent, key
	}
	return e.insertStruct(key, e.buildEntry(phy, zoo)), key
}

func (e *Evaluator) lookupStruct(key string) *structEntry {
	sh := &e.shards[fnv.New().Str(key)&(cacheShards-1)]
	sh.mu.Lock()
	ent := sh.structs[key]
	sh.mu.Unlock()
	return ent
}

// insertStruct publishes a tier-1 entry; on a racing insert the first
// entry wins so every goroutine shares one compiled system per structure.
func (e *Evaluator) insertStruct(key string, ent *structEntry) *structEntry {
	sh := &e.shards[fnv.New().Str(key)&(cacheShards-1)]
	sh.mu.Lock()
	if old, ok := sh.structs[key]; ok {
		sh.mu.Unlock()
		return old
	}
	sh.structs[key] = ent
	sh.mu.Unlock()
	return ent
}

// deriveSplitSimplify turns the derivation tree into the two still unbound
// derivative expressions, simplified under UseCache.
func (e *Evaluator) deriveSplitSimplify(ind *gp.Individual) (phy, zoo *expr.Node, err error) {
	e.ctr[cDerives].Add(1)
	return deriveSplit(ind, e.opts.UseCache)
}

// deriveSplit is deriveSplitSimplify without the evaluator: the derive →
// split → simplify half of both the tier-1 build and Compile.
func deriveSplit(ind *gp.Individual, simplify bool) (phy, zoo *expr.Node, err error) {
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return nil, nil, err
	}
	phy, zoo, err = grammar.SplitSystem(derived)
	if err != nil {
		return nil, nil, err
	}
	if simplify {
		// Derive() built a fresh tree nobody else holds, so simplify in
		// place instead of paying another full-tree clone (the cold path's
		// single largest allocation source).
		phy = expr.SimplifyOwned(phy)
		zoo = expr.SimplifyOwned(zoo)
	}
	return phy, zoo, nil
}

// buildEntry binds the split system and builds its executable form (the
// segmented register program under UseCompile, interpreting trees
// otherwise). Every successful bind counts as a structure build.
func (e *Evaluator) buildEntry(phy, zoo *expr.Node) *structEntry {
	seg, bound, err := link(phy, zoo, e.consts, e.opts.UseCompile)
	if bound {
		e.ctr[cCompiles].Add(1)
	}
	switch {
	case err != nil:
		return &structEntry{bad: true}
	case seg == nil:
		return &structEntry{tree: bio.NewTreeSystem(phy, zoo)}
	}
	return &structEntry{seg: seg, plan: seg.NewExogPlan(e.forcing)}
}

// link is the bind → compile step shared by Compile and the evaluator's
// tier-1 build: it binds the split system to the bio variable layout and
// consts and, with compile, compiles it onto the segmented register VM.
// bound reports whether binding succeeded.
func link(phy, zoo *expr.Node, consts []bio.Constant, compile bool) (seg *bio.SegSystem, bound bool, err error) {
	if err := grammar.BindSystem(phy, zoo, consts); err != nil {
		return nil, false, err
	}
	if !compile {
		return nil, true, nil
	}
	seg, err = bio.NewSegSystem(phy, zoo)
	return seg, true, err
}

// planFor resolves the tier-1.5 exogenous plan of a structure: the T×k
// matrix of hoisted forcing-only register values over this evaluator's
// training window, filled block by block as simulations reach its days.
// The structure's first simulation counts as the plan's build; every later
// one reuses the rows already filled. Without UseCache every evaluation
// builds a fresh entry, so each evaluation opens (and counts) a new plan.
func (e *Evaluator) planFor(ent *structEntry) *bio.ExogPlan {
	if ent.opened.CompareAndSwap(false, true) {
		e.ctr[cExogPlanBuilds].Add(1)
		e.ctr[cRegsHoisted].Add(int64(ent.plan.Width()))
	} else {
		e.ctr[cExogPlanHits].Add(1)
	}
	return ent.plan
}

// renderKey builds the canonical structure key: "s|" (the simplified
// form; the prefix is part of every tier-2 key and so of every fault
// site) and the canonical strings of both derivative expressions.
func renderKey(phy, zoo *expr.Node) string {
	var b strings.Builder
	b.WriteString("s|")
	b.WriteString(phy.String())
	b.WriteByte('|')
	b.WriteString(zoo.String())
	return b.String()
}

// appendFitKey renders the tier-2 key (structure key + parameter vector)
// into buf, which is reused across evaluations by the same goroutine.
func appendFitKey(buf []byte, structKey string, params []float64) []byte {
	buf = append(buf, structKey...)
	buf = append(buf, '#')
	for _, p := range params {
		buf = strconv.AppendFloat(buf, p, 'g', 17, 64)
		buf = append(buf, ',')
	}
	return buf
}

// Model is an individual's revised process, compiled once: its simplified
// derivative expressions, bound to a constants table, and the segmented
// register program they compile to. Predict (promoted from the SegSystem)
// simulates it over any forcing window under any parameter vector; a Model
// is immutable and safe for concurrent use.
type Model struct {
	Phy, Zoo *expr.Node
	*bio.SegSystem
}

// Compile derives, splits and simplifies an individual's revised process
// (ModelExprs), then binds it to consts and compiles it. It shares no state
// with any evaluator's caches. When binding or compiling fails, the Model
// returned with the error still carries the expressions (and a nil
// SegSystem), so a caller can show what failed to build.
func Compile(ind *gp.Individual, consts []bio.Constant) (*Model, error) {
	phy, zoo, err := ModelExprs(ind)
	if err != nil {
		return nil, err
	}
	m := &Model{Phy: phy, Zoo: zoo}
	m.SegSystem, _, err = link(phy, zoo, consts, true)
	return m, err
}

// ModelExprs is the first half of Compile: an individual's simplified,
// human-readable derivative expressions, not yet bound.
func ModelExprs(ind *gp.Individual) (phy, zoo *expr.Node, err error) {
	return deriveSplit(ind, true)
}
