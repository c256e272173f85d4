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
// The Evaluator implements gp.Evaluator with deterministic batch semantics:
// the short-circuiting reference fitness is frozen for the duration of a
// batch and updated at the batch boundary, so parallel evaluation order
// cannot change results.
package evalx

import (
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gmr/internal/bio"
	"gmr/internal/expr"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
)

// Extrapolate estimates the final fitness from the intermediate fitness
// after i of n fitness cases (Algorithm 1's EXTRAPOLATE).
type Extrapolate func(intermediate float64, i, n int) float64

// RunningRMSE is the default extrapolation: the running RMSE over the
// cases seen so far is already an estimate of the final RMSE, so it is
// returned unchanged.
func RunningRMSE(intermediate float64, i, n int) float64 { return intermediate }

// Pessimistic inflates the running RMSE by the square root of the fraction
// of cases remaining, modeling error accumulation over the un-simulated
// horizon; it short-circuits more eagerly.
func Pessimistic(intermediate float64, i, n int) float64 {
	if i+1 >= n {
		return intermediate
	}
	return intermediate * math.Sqrt(float64(n)/float64(i+1))
}

// Options selects the speedups and the simulation regime.
type Options struct {
	// UseCache enables the two-tier tree cache (structure tier +
	// fitness tier).
	UseCache bool
	// UseShortCircuit enables evaluation short-circuiting.
	UseShortCircuit bool
	// Threshold is Algorithm 1's eagerness knob: intermediate fitness is
	// compared against bestPrevFull×Threshold. Zero means 1.0.
	Threshold float64
	// MinFrac is the fraction of fitness cases that must be simulated
	// before short-circuiting may trigger: the running RMSE over the
	// first few days is dominated by the spin-up transient and is a
	// noisy estimate of the final fitness. Zero means 0.1.
	MinFrac float64
	// Extrap is Algorithm 1's EXTRAPOLATE; nil means RunningRMSE.
	Extrap Extrapolate
	// UseCompile selects runtime compilation onto the segmented register
	// VM (DESIGN.md §10) over tree interpretation. With UseCache the
	// compiled structure and its hoisted exogenous plan are reused across
	// evaluations; without it both are rebuilt for every evaluation.
	UseCompile bool
	// Simplify applies algebraic simplification before evaluation (and
	// before cache lookup, raising the hit rate).
	Simplify bool
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
	// EvalDeadline bounds the wall-clock time of a single evaluation;
	// zero disables it. A candidate exceeding the deadline is aborted
	// and quarantined with ReasonDeadline (+Inf fitness). Deadline
	// aborts depend on wall-clock time, so they are NOT cached and
	// using them forfeits the bitwise-determinism contract; treat the
	// deadline as a safety valve for pathological candidates, not part
	// of reproducible experiments.
	EvalDeadline time.Duration
	// ProfileLabels enables per-phase pprof labels (eval_phase =
	// exog-plan / prologue / step-kernel) on the evaluation hot path, the
	// same toggle as Evaluator.SetProfileLabels. Enable only for
	// profiling runs: each labeled region allocates a pprof label set,
	// which forfeits the zero-allocation contract of the steady-state
	// paths (riverbench flips this on together with -cpuprofile/-pprof).
	ProfileLabels bool
	// Tracer records evaluation-phase spans (evalx.exog_plan,
	// evalx.prologue, evalx.step_kernel) at the same seams as the pprof
	// labels. A nil tracer is the zero-cost disabled path (no clock
	// reads, no allocations); an enabled tracer samples and ring-buffers
	// spans (see internal/obs).
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 1.0
	}
	if o.MinFrac == 0 {
		o.MinFrac = 0.1
	}
	if o.Extrap == nil {
		o.Extrap = RunningRMSE
	}
	return o
}

// AllSpeedups returns Options with caching, short-circuiting (threshold
// 1.0), compilation, and simplification all enabled.
func AllSpeedups(sim bio.SimConfig) Options {
	return Options{UseCache: true, UseShortCircuit: true, UseCompile: true, Simplify: true, Sim: sim}
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
	// ReasonDeadline: the evaluation exceeded Options.EvalDeadline.
	ReasonDeadline
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
	case ReasonDeadline:
		return "deadline"
	case ReasonBadStructure:
		return "bad_structure"
	default:
		return "?"
	}
}

// Stats counts evaluator work for the Fig 10/11 analyses and the cache
// telemetry of the two-tier evaluation cache.
type Stats struct {
	Evaluations    int // Evaluate calls
	FullEvals      int // evaluations that ran every fitness case
	ShortCircuits  int // evaluations stopped early
	CacheHits      int // tier-2 hits: (structure, params) fitness served from cache
	Tier1Hits      int // tier-1 hits: compiled structure served from cache
	Derives        int // derive→simplify pipeline executions
	Compiles       int // structure builds (bind + compile)
	StepsEvaluated int // total fitness cases actually simulated
	StepsPossible  int // fitness cases that full evaluation would cost

	// Tier-1.5 (exogenous-plan) cache and batch-evaluation counters
	// (DESIGN.md §10).
	ExogPlanBuilds int // T×k exogenous matrices materialized (once per structure)
	ExogPlanHits   int // segmented simulations served by an existing plan
	RegsHoisted    int // exogenous registers hoisted across all plan builds (Σ k)
	BatchCalls     int // EvaluateParamBatch invocations
	BatchMembers   int // parameter vectors evaluated through the batch API

	// Lane-batched kernel counters (DESIGN.md §11): one lane batch is one
	// KernelLanes launch scoring up to expr.Lanes members per instruction
	// dispatch. LanesFilled sums the live lanes across launches, so
	// LanesFilled/LaneBatches is the average fill; LaneShortCircuits counts
	// Algorithm 1 early stops decided inside lane batches (a subset of
	// ShortCircuits).
	LaneBatches       int // KernelLanes launches
	LanesFilled       int // members carried by those launches (Σ chunk sizes)
	LaneShortCircuits int // short circuits decided on the lane path
	LaneCompactions   int // lanes compacted away mid-launch (aborts + early stops)

	// Structure-clustered population-scheduler counters (DESIGN.md §14):
	// clusters are same-structure groups the GP generation loop dispatched
	// through EvaluateCluster; scalar fallbacks are singleton clusters
	// (unique structures, failed derivations, or the -nocluster ablation).
	// PopLaneBatches/PopLanesFilled are the subset of LaneBatches/
	// LanesFilled launched from the population path, and the histogram
	// buckets cluster sizes at powers of two (1, 2, ≤4, ≤8, ..., >64).
	PopClusters        int                 // multi-member clusters scheduled
	PopScalarFallbacks int                 // singleton clusters (scalar path)
	PopLaneBatches     int                 // KernelLanes launches from EvaluateCluster
	PopLanesFilled     int                 // members carried by those launches
	PopClusterSizeHist [PopHistBuckets]int // cluster sizes, power-of-two buckets

	// Quarantine counters, by reason code (simulations aborted with +Inf
	// fitness rather than a measured RMSE).
	QuarNaN          int // state became NaN mid-simulation
	QuarInf          int // state overflowed to ±Inf mid-simulation
	QuarDeadline     int // evaluation exceeded the per-evaluation deadline
	QuarBadStructure int // derivation failed to derive/bind/compile
}

// PopHistBuckets is the number of power-of-two buckets of the cluster-size
// histogram: sizes 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, and >64.
const PopHistBuckets = 8

// Quarantined returns the total number of quarantined evaluations.
func (s Stats) Quarantined() int {
	return s.QuarNaN + s.QuarInf + s.QuarDeadline + s.QuarBadStructure
}

// Add accumulates another stats snapshot (e.g. across per-run evaluators).
func (s *Stats) Add(o Stats) {
	s.Evaluations += o.Evaluations
	s.FullEvals += o.FullEvals
	s.ShortCircuits += o.ShortCircuits
	s.CacheHits += o.CacheHits
	s.Tier1Hits += o.Tier1Hits
	s.Derives += o.Derives
	s.Compiles += o.Compiles
	s.StepsEvaluated += o.StepsEvaluated
	s.StepsPossible += o.StepsPossible
	s.ExogPlanBuilds += o.ExogPlanBuilds
	s.ExogPlanHits += o.ExogPlanHits
	s.RegsHoisted += o.RegsHoisted
	s.BatchCalls += o.BatchCalls
	s.BatchMembers += o.BatchMembers
	s.LaneBatches += o.LaneBatches
	s.LanesFilled += o.LanesFilled
	s.LaneShortCircuits += o.LaneShortCircuits
	s.LaneCompactions += o.LaneCompactions
	s.PopClusters += o.PopClusters
	s.PopScalarFallbacks += o.PopScalarFallbacks
	s.PopLaneBatches += o.PopLaneBatches
	s.PopLanesFilled += o.PopLanesFilled
	for i := range s.PopClusterSizeHist {
		s.PopClusterSizeHist[i] += o.PopClusterSizeHist[i]
	}
	s.QuarNaN += o.QuarNaN
	s.QuarInf += o.QuarInf
	s.QuarDeadline += o.QuarDeadline
	s.QuarBadStructure += o.QuarBadStructure
}

// counters is the lock-free internal form of Stats: every field is an
// atomic so concurrent Evaluate calls never contend on a stats mutex.
type counters struct {
	evaluations    atomic.Int64
	fullEvals      atomic.Int64
	shortCircuits  atomic.Int64
	cacheHits      atomic.Int64
	tier1Hits      atomic.Int64
	derives        atomic.Int64
	compiles       atomic.Int64
	stepsEvaluated atomic.Int64
	stepsPossible  atomic.Int64
	exogPlanBuilds atomic.Int64
	exogPlanHits   atomic.Int64
	regsHoisted    atomic.Int64
	batchCalls     atomic.Int64
	batchMembers   atomic.Int64
	laneBatches    atomic.Int64
	lanesFilled    atomic.Int64
	laneShortCircs atomic.Int64
	laneCompacts   atomic.Int64
	popClusters    atomic.Int64
	popScalarFalls atomic.Int64
	popLaneBatches atomic.Int64
	popLanesFilled atomic.Int64
	popClusterHist [PopHistBuckets]atomic.Int64
	quarantine     [numReasons]atomic.Int64
}

func (c *counters) snapshot() Stats {
	var hist [PopHistBuckets]int
	for i := range c.popClusterHist {
		hist[i] = int(c.popClusterHist[i].Load())
	}
	return Stats{
		Evaluations:        int(c.evaluations.Load()),
		FullEvals:          int(c.fullEvals.Load()),
		ShortCircuits:      int(c.shortCircuits.Load()),
		CacheHits:          int(c.cacheHits.Load()),
		Tier1Hits:          int(c.tier1Hits.Load()),
		Derives:            int(c.derives.Load()),
		Compiles:           int(c.compiles.Load()),
		StepsEvaluated:     int(c.stepsEvaluated.Load()),
		StepsPossible:      int(c.stepsPossible.Load()),
		ExogPlanBuilds:     int(c.exogPlanBuilds.Load()),
		ExogPlanHits:       int(c.exogPlanHits.Load()),
		RegsHoisted:        int(c.regsHoisted.Load()),
		BatchCalls:         int(c.batchCalls.Load()),
		BatchMembers:       int(c.batchMembers.Load()),
		LaneBatches:        int(c.laneBatches.Load()),
		LanesFilled:        int(c.lanesFilled.Load()),
		LaneShortCircuits:  int(c.laneShortCircs.Load()),
		LaneCompactions:    int(c.laneCompacts.Load()),
		PopClusters:        int(c.popClusters.Load()),
		PopScalarFallbacks: int(c.popScalarFalls.Load()),
		PopLaneBatches:     int(c.popLaneBatches.Load()),
		PopLanesFilled:     int(c.popLanesFilled.Load()),
		PopClusterSizeHist: hist,
		QuarNaN:            int(c.quarantine[ReasonNaN].Load()),
		QuarInf:            int(c.quarantine[ReasonInf].Load()),
		QuarDeadline:       int(c.quarantine[ReasonDeadline].Load()),
		QuarBadStructure:   int(c.quarantine[ReasonBadStructure].Load()),
	}
}

func (c *counters) reset() {
	c.evaluations.Store(0)
	c.fullEvals.Store(0)
	c.shortCircuits.Store(0)
	c.cacheHits.Store(0)
	c.tier1Hits.Store(0)
	c.derives.Store(0)
	c.compiles.Store(0)
	c.stepsEvaluated.Store(0)
	c.stepsPossible.Store(0)
	c.exogPlanBuilds.Store(0)
	c.exogPlanHits.Store(0)
	c.regsHoisted.Store(0)
	c.batchCalls.Store(0)
	c.batchMembers.Store(0)
	c.laneBatches.Store(0)
	c.lanesFilled.Store(0)
	c.laneShortCircs.Store(0)
	c.laneCompacts.Store(0)
	c.popClusters.Store(0)
	c.popScalarFalls.Store(0)
	c.popLaneBatches.Store(0)
	c.popLanesFilled.Store(0)
	for i := range c.popClusterHist {
		c.popClusterHist[i].Store(0)
	}
	for i := range c.quarantine {
		c.quarantine[i].Store(0)
	}
}

// quarantineCount counts one quarantined evaluation under reason r
// (ReasonOK is ignored).
func (c *counters) quarantineCount(r Reason) {
	if r != ReasonOK {
		c.quarantine[r].Add(1)
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
	// keyTag prefixes every structure key with the simplify mode ('s'
	// or 'r'), so a key memoized on an individual by a
	// differently-configured evaluator can never alias an entry in this
	// evaluator's caches.
	keyTag byte

	shards [cacheShards]cacheShard
	ctr    counters

	// profLabels enables per-phase pprof labels (eval_phase = exog-plan /
	// prologue / step-kernel) so CPU profiles attribute time to the
	// segments of the register VM. Off by default: pprof.Do allocates a
	// label set per call, which would break the zero-allocation contract
	// of the steady-state paths.
	profLabels bool

	// tracer records evaluation-phase spans at the pprof-label seams; a
	// nil tracer costs one nil check per phase (see Options.Tracer).
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

// evalScratch is the per-goroutine reusable state of one evaluation: the
// simulator buffers, the cache-key builder, and the lane-batch member
// table (reused so steady-state lane batches allocate nothing).
type evalScratch struct {
	sim        bio.SimScratch
	key        []byte
	lane       []laneMember
	laneParams [][]float64
	// Cluster-path buffers (EvaluateCluster): ckeys holds every pending
	// member's rendered tier-2 key back to back (laneMember.keyOff/keyLen
	// index into it, so finalize can insert without re-rendering); dups
	// collects intra-cluster (structure, params) duplicates, resolved as
	// cache hits after their source member commits.
	ckeys []byte
	dups  []dupPair
}

// dupPair marks an intra-cluster duplicate: dst's (structure, params) key is
// byte-identical to a pending member's, so dst adopts src's committed result
// as a tier-2 cache hit (what sequential evaluation order would produce).
type dupPair struct {
	dst, src *gp.Individual
}

// laneMember is the per-member accumulator of one lane-batched evaluation:
// the same running state the scalar simulate keeps in closure locals, held
// per lane so one hook can drive all members of a KernelLanes launch.
type laneMember struct {
	idx    int // index into the caller's out (or inds) slice
	params []float64
	poison int // fault-injected NaN step, -1 when clean
	sse    float64
	steps  int
	short  float64 // extrapolated surrogate fitness when scd
	scd    bool
	reason Reason

	// Cluster-path bookkeeping (EvaluateCluster): the member's tier-2 key
	// within evalScratch.ckeys and its fault/shard site hash, kept so the
	// finalize loop can insert the simulated fitness into the tier-2 cache
	// exactly like the scalar path. Unused by EvaluateParamBatch.
	keyOff, keyLen int
	site           uint64
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
	// compiled register program; plan is the lazily built tier-1.5
	// exogenous matrix for this evaluator's forcing series. An evaluator
	// owns exactly one dataset, so the (structure, dataset) cache key
	// reduces to the structure — the plan can hang off the tier-1 entry
	// and be built at most once via planOnce.
	seg      *bio.SegSystem
	planOnce sync.Once
	plan     *bio.ExogPlan
}

// cacheShards stripes both cache tiers; must be a power of two.
const cacheShards = 64

type cacheShard struct {
	mu      sync.Mutex
	structs map[string]*structEntry
	fits    map[string]cacheEntry
}

// fnv1a64 over a string (inlined to avoid hash.Hash64 allocations).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
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
		keyTag:       'r',
		bestPrevFull: math.Inf(1),
		pendingBest:  math.Inf(1),
		profLabels:   o.ProfileLabels,
		tracer:       o.Tracer,
	}
	if o.Simplify {
		e.keyTag = 's'
	}
	for i := range e.shards {
		e.shards[i].structs = map[string]*structEntry{}
		e.shards[i].fits = map[string]cacheEntry{}
	}
	e.frozenBits.Store(math.Float64bits(math.Inf(1)))
	e.scratch.New = func() any { return &evalScratch{} }
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

// SetProfileLabels toggles per-phase pprof labels on the evaluation hot
// path (see Evaluator.profLabels). Enable it only for profiling runs: the
// labels allocate per evaluation. Call before evaluations start, not
// concurrently with them.
func (e *Evaluator) SetProfileLabels(on bool) { e.profLabels = on }

// Stats returns a snapshot of the work counters.
func (e *Evaluator) Stats() Stats { return e.ctr.snapshot() }

// ResetStats zeroes the work counters (the caches are kept).
func (e *Evaluator) ResetStats() { e.ctr.reset() }

// Snapshot is a JSON-marshalable copy of the evaluator's atomic work
// counters, with per-tier hits/misses and derived hit rates — the cache
// telemetry record consumed by the run orchestrator's JSONL stream and the
// bencheval snapshot. Tier-1 misses are evaluations that had to run the
// derive→simplify pipeline; tier-2 misses are evaluations whose fitness was
// not served from the (structure, params) cache (including all evaluations
// when caching is disabled).
type Snapshot struct {
	Evaluations    int     `json:"evaluations"`
	FullEvals      int     `json:"full_evals"`
	ShortCircuits  int     `json:"short_circuits"`
	Tier1Hits      int     `json:"tier1_hits"`
	Tier1Misses    int     `json:"tier1_misses"`
	Tier2Hits      int     `json:"tier2_hits"`
	Tier2Misses    int     `json:"tier2_misses"`
	Tier1HitRate   float64 `json:"tier1_hit_rate"`
	Tier2HitRate   float64 `json:"tier2_hit_rate"`
	Derives        int     `json:"derives"`
	Compiles       int     `json:"compiles"`
	StepsEvaluated int     `json:"steps_evaluated"`
	StepsPossible  int     `json:"steps_possible"`

	// Tier-1.5 exogenous-plan cache and batch-evaluation telemetry
	// (DESIGN.md §10): plans are hoisted T×k forcing matrices built once
	// per structure; hits are segmented simulations that reused one.
	ExogPlanBuilds int `json:"exog_plan_builds"`
	ExogPlanHits   int `json:"exog_plan_hits"`
	RegsHoisted    int `json:"regs_hoisted"`
	BatchCalls     int `json:"batch_calls"`
	BatchMembers   int `json:"batch_members"`

	// Lane-batched kernel telemetry (DESIGN.md §11): launches of the
	// multi-lane STEP kernel, the members they carried (their ratio is the
	// average lane fill), and Algorithm 1 early stops decided inside lane
	// batches.
	LaneBatches       int `json:"lane_batches"`
	LanesFilled       int `json:"lanes_filled"`
	LaneShortCircuits int `json:"lane_short_circuits"`
	LaneCompactions   int `json:"lane_compactions"`

	// Structure-clustered population-scheduler telemetry (DESIGN.md §14):
	// same-structure clusters the generation loop dispatched through the
	// lane kernel, singleton scalar fallbacks, the lane launches the
	// population path issued, and the power-of-two cluster-size histogram
	// (buckets 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64).
	PopClusters        int                 `json:"pop_clusters"`
	PopScalarFallbacks int                 `json:"pop_scalar_fallbacks"`
	PopLaneBatches     int                 `json:"pop_lane_batches"`
	PopLanesFilled     int                 `json:"pop_lanes_filled"`
	PopClusterSizeHist [PopHistBuckets]int `json:"pop_cluster_size_hist"`

	// Quarantine counters (omitted when zero, so fault-free streams keep
	// their previous byte format).
	QuarNaN          int `json:"quar_nan,omitempty"`
	QuarInf          int `json:"quar_inf,omitempty"`
	QuarDeadline     int `json:"quar_deadline,omitempty"`
	QuarBadStructure int `json:"quar_bad_structure,omitempty"`
}

// Snapshot returns the JSON-marshalable counter snapshot. It is safe to
// call concurrently with evaluations; the counters are read atomically
// (field by field, so a snapshot taken mid-batch is a near-instant rather
// than perfectly instantaneous cut).
func (e *Evaluator) Snapshot() Snapshot {
	st := e.ctr.snapshot()
	snap := Snapshot{
		Evaluations:        st.Evaluations,
		FullEvals:          st.FullEvals,
		ShortCircuits:      st.ShortCircuits,
		Tier1Hits:          st.Tier1Hits,
		Tier1Misses:        st.Evaluations - st.Tier1Hits,
		Tier2Hits:          st.CacheHits,
		Tier2Misses:        st.Evaluations - st.CacheHits,
		Derives:            st.Derives,
		Compiles:           st.Compiles,
		StepsEvaluated:     st.StepsEvaluated,
		StepsPossible:      st.StepsPossible,
		ExogPlanBuilds:     st.ExogPlanBuilds,
		ExogPlanHits:       st.ExogPlanHits,
		RegsHoisted:        st.RegsHoisted,
		BatchCalls:         st.BatchCalls,
		BatchMembers:       st.BatchMembers,
		LaneBatches:        st.LaneBatches,
		LanesFilled:        st.LanesFilled,
		LaneShortCircuits:  st.LaneShortCircuits,
		LaneCompactions:    st.LaneCompactions,
		PopClusters:        st.PopClusters,
		PopScalarFallbacks: st.PopScalarFallbacks,
		PopLaneBatches:     st.PopLaneBatches,
		PopLanesFilled:     st.PopLanesFilled,
		PopClusterSizeHist: st.PopClusterSizeHist,
		QuarNaN:            st.QuarNaN,
		QuarInf:            st.QuarInf,
		QuarDeadline:       st.QuarDeadline,
		QuarBadStructure:   st.QuarBadStructure,
	}
	if snap.Tier1Misses < 0 {
		snap.Tier1Misses = 0
	}
	if snap.Tier2Misses < 0 {
		snap.Tier2Misses = 0
	}
	if st.Evaluations > 0 {
		snap.Tier1HitRate = float64(st.Tier1Hits) / float64(st.Evaluations)
		snap.Tier2HitRate = float64(st.CacheHits) / float64(st.Evaluations)
	}
	return snap
}

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
// speedups, and stores the resulting fitness on the individual.
func (e *Evaluator) Evaluate(ind *gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	if !e.opts.UseCache {
		e.ctr.evaluations.Add(1)
		e.ctr.stepsPossible.Add(int64(len(e.obs)))
		fitness, full := e.evalUncached(ind, ind.Params, sc)
		ind.Fitness, ind.Evaluated, ind.FullEval = fitness, true, full
		return
	}

	ent, key := e.structFor(ind)
	if ent == nil || ent.bad {
		e.markBadStructure(ind)
		return
	}
	e.evaluateResolved(ind, ent, key, sc)
}

// markBadStructure quarantines an individual whose structure failed to
// derive, bind, or compile, with the same counter trail as a scalar
// evaluation of it (evaluation counted, no fault injection, no simulation).
func (e *Evaluator) markBadStructure(ind *gp.Individual) {
	e.ctr.evaluations.Add(1)
	e.ctr.stepsPossible.Add(int64(len(e.obs)))
	e.ctr.quarantineCount(ReasonBadStructure)
	ind.Fitness, ind.Evaluated, ind.FullEval = math.Inf(1), true, true
}

// evaluateResolved is the cached evaluation pipeline after structure
// resolution: tier-2 lookup, fault injection, simulation, quarantine
// classification, and the tier-2 insert. Shared by Evaluate (which resolves
// via structFor) and EvaluateCluster's scalar path (whose members were
// resolved up front by ResolveStruct).
func (e *Evaluator) evaluateResolved(ind *gp.Individual, ent *structEntry, key string, sc *evalScratch) {
	e.ctr.evaluations.Add(1)
	e.ctr.stepsPossible.Add(int64(len(e.obs)))

	// Tier 2: (structure, params) → fitness. The key is rendered into
	// per-goroutine scratch; map lookups with string(kb) do not
	// allocate, only a first-time insert materializes the string.
	kb := appendFitKey(sc.key[:0], key, ind.Params)
	sc.key = kb
	site := hashBytes(kb)
	// Fault injection happens before the tier-2 lookup so the decision
	// is a pure function of the evaluation input, independent of cache
	// warmth (a cache hit for a NaN-poisoned key returns the same +Inf
	// the poisoned simulation produced). Nil injector: two nil checks.
	e.injectPre(site)
	sh := &e.shards[site&(cacheShards-1)]
	sh.mu.Lock()
	if hit, ok := sh.fits[string(kb)]; ok {
		sh.mu.Unlock()
		e.ctr.cacheHits.Add(1)
		ind.Fitness, ind.Evaluated, ind.FullEval = hit.fitness, true, hit.full
		return
	}
	sh.mu.Unlock()

	fitness, full, steps, reason := e.simulate(ent, ind.Params, sc, site)
	e.ctr.quarantineCount(reason)
	e.recordResult(fitness, full, steps)

	// Deadline aborts depend on wall-clock time; caching one would make
	// a transient stall permanent for that (structure, params) pair.
	if reason != ReasonDeadline {
		sh.mu.Lock()
		if _, ok := sh.fits[string(kb)]; !ok {
			sh.fits[string(kb)] = cacheEntry{fitness, full}
		}
		sh.mu.Unlock()
	}
	ind.Fitness, ind.Evaluated, ind.FullEval = fitness, true, full
}

// evalUncached is the cache-free pipeline (the Fig 10 ablation baseline):
// derive, bind, build, and simulate on every call, scoring ind's structure
// under an explicit parameter vector.
func (e *Evaluator) evalUncached(ind *gp.Individual, params []float64, sc *evalScratch) (float64, bool) {
	phy, zoo, err := e.deriveSplitSimplify(ind)
	if err != nil {
		e.ctr.quarantineCount(ReasonBadStructure)
		return math.Inf(1), true
	}
	ent := e.buildEntry(phy, zoo)
	if ent.bad {
		e.ctr.quarantineCount(ReasonBadStructure)
		return math.Inf(1), true
	}
	// Without a cache key, the injection site hash derives from the
	// parameter vector (bit patterns), seeded by a fixed base.
	site := faultinject.HashFloats(uncachedSiteBase, params)
	e.injectPre(site)
	fitness, full, steps, reason := e.simulate(ent, params, sc, site)
	e.ctr.quarantineCount(reason)
	e.recordResult(fitness, full, steps)
	return fitness, full
}

// EvaluateParamBatch scores many parameter vectors against one individual's
// structure in a single call (gp.BatchEvaluator): the structure is resolved
// through the tier-1 cache once, the tier-1.5 exogenous plan is shared by
// every member, and each member pays only the parameter prologue plus the
// state-dependent step kernel. Results are appended to out and returned,
// one per parameter vector, equivalent to sequential Evaluate calls (same
// fitnesses, same fault-injection sites, same short-circuit decisions under
// the batch-frozen reference).
//
// Unlike Evaluate, the batch path consults the tier-2 fitness cache but
// never inserts into it: parameter sweeps are high-churn (Gaussian-mutation
// proposals are almost never replayed verbatim), and skipping the insert
// avoids materializing a key string per member — the steady-state batch
// path is allocation-free. It is safe for concurrent calls between
// BeginBatch and EndBatch.
func (e *Evaluator) EvaluateParamBatch(ind *gp.Individual, paramSets [][]float64, out []gp.BatchResult) []gp.BatchResult {
	e.ctr.batchCalls.Add(1)
	e.ctr.batchMembers.Add(int64(len(paramSets)))

	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	if !e.opts.UseCache {
		// Ablation configurations run the full uncached pipeline per
		// member, exactly like sequential Evaluate calls, so the Fig 10
		// derive/compile counters keep their meaning.
		for _, ps := range paramSets {
			e.ctr.evaluations.Add(1)
			e.ctr.stepsPossible.Add(int64(len(e.obs)))
			fitness, full := e.evalUncached(ind, ps, sc)
			out = append(out, gp.BatchResult{Fitness: fitness, Full: full})
		}
		return out
	}

	ent, key := e.structFor(ind)
	if ent != nil && !ent.bad && len(paramSets) > 1 {
		// The remaining members share the resolved structure by
		// construction; count them as tier-1 hits so hit-rate telemetry
		// stays comparable with sequential evaluation.
		e.ctr.tier1Hits.Add(int64(len(paramSets) - 1))
	}
	if ent != nil && !ent.bad && ent.seg != nil && e.opts.EvalDeadline == 0 {
		// Lane-batched fast path (DESIGN.md §11): score up to expr.Lanes
		// members per STEP-instruction dispatch. Deadline evaluations stay
		// on the scalar path — their wall-clock polls are per-member.
		return e.evalParamBatchLanes(ent, key, paramSets, out, sc)
	}
	for _, ps := range paramSets {
		e.ctr.evaluations.Add(1)
		e.ctr.stepsPossible.Add(int64(len(e.obs)))
		if ent == nil || ent.bad {
			e.ctr.quarantineCount(ReasonBadStructure)
			out = append(out, gp.BatchResult{Fitness: math.Inf(1), Full: true})
			continue
		}
		kb := appendFitKey(sc.key[:0], key, ps)
		sc.key = kb
		site := hashBytes(kb)
		e.injectPre(site)
		sh := &e.shards[site&(cacheShards-1)]
		sh.mu.Lock()
		if hit, ok := sh.fits[string(kb)]; ok {
			sh.mu.Unlock()
			e.ctr.cacheHits.Add(1)
			out = append(out, gp.BatchResult{Fitness: hit.fitness, Full: hit.full})
			continue
		}
		sh.mu.Unlock()
		fitness, full, steps, reason := e.simulate(ent, ps, sc, site)
		e.ctr.quarantineCount(reason)
		e.recordResult(fitness, full, steps)
		out = append(out, gp.BatchResult{Fitness: fitness, Full: full})
	}
	return out
}

// evalParamBatchLanes is the lane-batched body of EvaluateParamBatch: the
// members that miss the tier-2 cache integrate through bio.KernelLanes in
// expr.Lanes-wide chunks, one instruction dispatch scoring the whole chunk.
// Per-member semantics are exactly the scalar simulate's — the same fault
// sites and NaN poisons, the same Algorithm 1 short-circuit decisions
// against the batch-frozen reference, the same quarantine classification —
// because the per-member hook state (laneMember) mirrors the scalar
// closure's locals and the lane kernel delivers bitwise-identical per-day
// values. A member whose evaluation short-circuits or aborts drops out of
// its chunk mid-flight (lane compaction), so UseShortCircuit saves real
// work inside batches instead of only truncating one member's loop.
func (e *Evaluator) evalParamBatchLanes(ent *structEntry, key string, paramSets [][]float64, out []gp.BatchResult, sc *evalScratch) []gp.BatchResult {
	n := len(e.obs)
	base := len(out)
	pending := sc.lane[:0]
	for i, ps := range paramSets {
		e.ctr.evaluations.Add(1)
		e.ctr.stepsPossible.Add(int64(n))
		out = append(out, gp.BatchResult{})
		kb := appendFitKey(sc.key[:0], key, ps)
		sc.key = kb
		site := hashBytes(kb)
		e.injectPre(site)
		sh := &e.shards[site&(cacheShards-1)]
		sh.mu.Lock()
		if hit, ok := sh.fits[string(kb)]; ok {
			sh.mu.Unlock()
			e.ctr.cacheHits.Add(1)
			out[base+i] = gp.BatchResult{Fitness: hit.fitness, Full: hit.full}
			continue
		}
		sh.mu.Unlock()
		// Cache miss: this member simulates. The plan lookup is counted
		// per simulated member, exactly like the scalar path's planFor
		// call inside simulate.
		e.planFor(ent)
		poison := -1
		if n > 0 && e.opts.Faults.Hit(faultinject.NaN, site) {
			poison = int(site % uint64(n))
		}
		pending = append(pending, laneMember{idx: base + i, params: ps, poison: poison})
	}
	sc.lane = pending
	if len(pending) == 0 {
		return out
	}

	threshold := e.opts.Threshold
	best := math.Inf(1)
	if e.opts.UseShortCircuit {
		best = math.Float64frombits(e.frozenBits.Load())
	}
	minSteps := int(e.opts.MinFrac * float64(n))
	var chunk []laneMember
	hook := func(m, t int, bphy float64) bool {
		lm := &chunk[m]
		if t == lm.poison {
			bphy = math.NaN()
		}
		if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
			lm.sse = math.Inf(1)
			lm.steps = t + 1
			if math.IsNaN(bphy) {
				lm.reason = ReasonNaN
			} else {
				lm.reason = ReasonInf
			}
			return false
		}
		d := bphy - e.obs[t]
		lm.sse += d * d
		lm.steps = t + 1
		if !e.opts.UseShortCircuit || math.IsInf(best, 1) || t+1 < minSteps {
			return true
		}
		fitness := math.Sqrt(lm.sse / float64(t+1))
		if fitness > best*threshold {
			est := e.opts.Extrap(fitness, t, n)
			if est > best {
				lm.short = est
				lm.scd = true
				return false // short circuit: the lane compacts away
			}
		}
		return true
	}

	plan := ent.plan // materialized above via planFor
	dropsBefore := sc.sim.LaneDrops
	for start := 0; start < len(pending); start += expr.Lanes {
		end := start + expr.Lanes
		if end > len(pending) {
			end = len(pending)
		}
		chunk = pending[start:end]
		ps := sc.laneParams[:0]
		for i := range chunk {
			ps = append(ps, chunk[i].params)
		}
		sc.laneParams = ps
		e.ctr.laneBatches.Add(1)
		e.ctr.lanesFilled.Add(int64(len(chunk)))
		span := e.tracer.Start("evalx.lane_batch")
		if e.profLabels {
			pprof.Do(context.Background(), pprof.Labels("eval_phase", "prologue"), func(context.Context) {
				ent.seg.PrologueLanes(ps, &sc.sim)
			})
			pprof.Do(context.Background(), pprof.Labels("eval_phase", "step-kernel"), func(context.Context) {
				ent.seg.KernelLanes(plan, e.opts.Sim, &sc.sim, len(chunk), hook)
			})
		} else {
			ent.seg.PrologueLanes(ps, &sc.sim)
			ent.seg.KernelLanes(plan, e.opts.Sim, &sc.sim, len(chunk), hook)
		}
		span.End()
	}
	e.ctr.laneCompacts.Add(int64(sc.sim.LaneDrops - dropsBefore))

	for i := range pending {
		lm := &pending[i]
		var fitness float64
		var full bool
		switch {
		case lm.scd:
			fitness, full = lm.short, false
			e.ctr.laneShortCircs.Add(1)
		case math.IsInf(lm.sse, 1) || lm.steps == 0 || lm.steps < n:
			if lm.reason == ReasonOK && (math.IsInf(lm.sse, 1) || lm.steps > 0) {
				lm.reason = ReasonNaN
			}
			fitness, full = math.Inf(1), true
		default:
			fitness, full = math.Sqrt(lm.sse/float64(n)), true
		}
		e.ctr.quarantineCount(lm.reason)
		e.recordResult(fitness, full, lm.steps)
		out[lm.idx] = gp.BatchResult{Fitness: fitness, Full: full}
	}
	return out
}

// uncachedSiteBase seeds the injection site hash of the uncached pipeline
// (an arbitrary odd constant).
const uncachedSiteBase = 0x51_7e_ba_5e_0dd5_ee_d1

// injectPre applies the pre-evaluation fault classes at site hash h: an
// injected panic (recovered and quarantined by gp.Engine's worker pool) or
// artificial latency. Nil injector: two nil checks, no allocation.
func (e *Evaluator) injectPre(h uint64) {
	if e.opts.Faults.Hit(faultinject.Panic, h) {
		panic(faultinject.InjectedPanic{Site: "evalx.Evaluate", Hash: h})
	}
	e.opts.Faults.Sleep(h)
}

// recordResult folds one simulation outcome into the counters and the
// pending short-circuit reference.
func (e *Evaluator) recordResult(fitness float64, full bool, steps int) {
	e.ctr.stepsEvaluated.Add(int64(steps))
	if full {
		e.ctr.fullEvals.Add(1)
		e.batchMu.Lock()
		if fitness < e.pendingBest {
			e.pendingBest = fitness
		}
		e.batchMu.Unlock()
	} else {
		e.ctr.shortCircuits.Add(1)
	}
}

// structFor resolves the individual's executable structure through the
// tier-1 cache. The fast path uses the structure key memoized on the
// individual and touches neither the derivation tree nor the printer; the
// slow path derives, simplifies, renders the canonical key, memoizes it on
// the individual, and compiles on a cache miss.
func (e *Evaluator) structFor(ind *gp.Individual) (*structEntry, string) {
	if key := ind.StructKey(); key != "" && key[0] == e.keyTag {
		if ent := e.lookupStruct(key); ent != nil {
			e.ctr.tier1Hits.Add(1)
			return ent, key
		}
		// The key is known but this evaluator has no entry yet;
		// compiling needs the trees, so fall through to a derive.
	}
	phy, zoo, err := e.deriveSplitSimplify(ind)
	if err != nil {
		return nil, ""
	}
	key := e.renderKey(phy, zoo)
	ind.SetStructKey(key)
	if ent := e.lookupStruct(key); ent != nil {
		e.ctr.tier1Hits.Add(1)
		return ent, key
	}
	return e.insertStruct(key, e.buildEntry(phy, zoo)), key
}

func (e *Evaluator) lookupStruct(key string) *structEntry {
	sh := &e.shards[hashString(key)&(cacheShards-1)]
	sh.mu.Lock()
	ent := sh.structs[key]
	sh.mu.Unlock()
	return ent
}

// insertStruct publishes a tier-1 entry; on a racing insert the first
// entry wins so every goroutine shares one compiled system per structure.
func (e *Evaluator) insertStruct(key string, ent *structEntry) *structEntry {
	sh := &e.shards[hashString(key)&(cacheShards-1)]
	sh.mu.Lock()
	if old, ok := sh.structs[key]; ok {
		sh.mu.Unlock()
		return old
	}
	sh.structs[key] = ent
	sh.mu.Unlock()
	return ent
}

// deriveSplitSimplify turns the derivation tree into the two (optionally
// simplified, still unbound) derivative expressions.
func (e *Evaluator) deriveSplitSimplify(ind *gp.Individual) (phy, zoo *expr.Node, err error) {
	e.ctr.derives.Add(1)
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return nil, nil, err
	}
	phy, zoo, err = grammar.SplitSystem(derived)
	if err != nil {
		return nil, nil, err
	}
	if e.opts.Simplify {
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
// otherwise).
func (e *Evaluator) buildEntry(phy, zoo *expr.Node) *structEntry {
	if err := grammar.BindSystem(phy, zoo, e.consts); err != nil {
		return &structEntry{bad: true}
	}
	e.ctr.compiles.Add(1)
	if !e.opts.UseCompile {
		return &structEntry{tree: bio.NewTreeSystem(phy, zoo)}
	}
	seg, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		return &structEntry{bad: true}
	}
	return &structEntry{seg: seg}
}

// planFor resolves the tier-1.5 exogenous plan of a structure: the T×k
// matrix of hoisted forcing-only register values over this evaluator's
// training window. The first caller materializes it (EvalExog over the
// whole series); every later simulation of the same structure reuses it.
// Without UseCache every evaluation builds a fresh entry, so the plan is
// rebuilt (and counted as a build) per evaluation.
func (e *Evaluator) planFor(ent *structEntry) *bio.ExogPlan {
	built := false
	ent.planOnce.Do(func() {
		span := e.tracer.Start("evalx.exog_plan")
		defer span.End()
		if e.profLabels {
			pprof.Do(context.Background(), pprof.Labels("eval_phase", "exog-plan"), func(context.Context) {
				ent.plan = ent.seg.BuildExogPlan(e.forcing)
			})
		} else {
			ent.plan = ent.seg.BuildExogPlan(e.forcing)
		}
		e.ctr.exogPlanBuilds.Add(1)
		e.ctr.regsHoisted.Add(int64(ent.plan.Width()))
		built = true
	})
	if !built {
		e.ctr.exogPlanHits.Add(1)
	}
	return ent.plan
}

// renderKey builds the canonical structure key: the simplify-mode tag and
// the canonical strings of both derivative expressions.
func (e *Evaluator) renderKey(phy, zoo *expr.Node) string {
	var b strings.Builder
	b.WriteByte(e.keyTag)
	b.WriteByte('|')
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

// simulate runs the forward simulation, accumulating the running RMSE and
// applying Algorithm 1 when short-circuiting is enabled. It returns the
// fitness (final RMSE, or the extrapolated surrogate when short-circuited),
// whether the evaluation was full, the number of fitness cases simulated,
// and the quarantine reason (ReasonOK for a clean simulation).
//
// site is the deterministic fault-injection site hash of this evaluation;
// when the NaN fault class fires, one simulation step (chosen from the
// hash) is poisoned with NaN, exercising the numeric quarantine end to end.
func (e *Evaluator) simulate(ent *structEntry, params []float64, sc *evalScratch, site uint64) (float64, bool, int, Reason) {
	n := len(e.obs)
	threshold := e.opts.Threshold
	best := math.Inf(1)
	if e.opts.UseShortCircuit {
		best = math.Float64frombits(e.frozenBits.Load())
	}
	poisonStep := -1
	if n > 0 && e.opts.Faults.Hit(faultinject.NaN, site) {
		poisonStep = int(site % uint64(n))
	}
	// The per-evaluation deadline is context-based: a context is created
	// only when a deadline is configured, and its Done channel is polled
	// every 32 fitness cases (off the hot path; zero cost when disabled).
	var done <-chan struct{}
	if d := e.opts.EvalDeadline; d > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		done = ctx.Done()
	}
	var sse float64
	steps := 0
	shortFitness := math.NaN()
	scd := false
	reason := ReasonOK
	minSteps := int(e.opts.MinFrac * float64(n))
	perStep := func(t int, bphy float64) bool {
		if t == poisonStep {
			bphy = math.NaN()
		}
		if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
			sse = math.Inf(1)
			steps = t + 1
			if math.IsNaN(bphy) {
				reason = ReasonNaN
			} else {
				reason = ReasonInf
			}
			return false
		}
		d := bphy - e.obs[t]
		sse += d * d
		steps = t + 1
		if done != nil && (t+1)&31 == 0 {
			select {
			case <-done:
				sse = math.Inf(1)
				reason = ReasonDeadline
				return false
			default:
			}
		}
		if !e.opts.UseShortCircuit || math.IsInf(best, 1) || t+1 < minSteps {
			return true
		}
		fitness := math.Sqrt(sse / float64(t+1))
		if fitness > best*threshold {
			est := e.opts.Extrap(fitness, t, n)
			if est > best {
				shortFitness = est
				scd = true
				return false // short circuit
			}
		}
		return true
	}
	if ent.seg != nil {
		// Segmented path (DESIGN.md §10): exogenous work is served from
		// the tier-1.5 plan, the parameter prologue runs once, and only
		// the state-dependent STEP segment runs per substep.
		plan := e.planFor(ent)
		span := e.tracer.Start("evalx.simulate")
		defer span.End()
		if e.profLabels {
			pprof.Do(context.Background(), pprof.Labels("eval_phase", "prologue"), func(context.Context) {
				ent.seg.Prologue(params, &sc.sim)
			})
			pprof.Do(context.Background(), pprof.Labels("eval_phase", "step-kernel"), func(context.Context) {
				ent.seg.Kernel(plan, e.opts.Sim, &sc.sim, perStep)
			})
		} else {
			ent.seg.Prologue(params, &sc.sim)
			ent.seg.Kernel(plan, e.opts.Sim, &sc.sim, perStep)
		}
	} else {
		ent.tree.RunBuf(e.forcing, params, e.opts.Sim, &sc.sim, perStep)
	}
	if scd {
		return shortFitness, false, steps, ReasonOK
	}
	if math.IsInf(sse, 1) || steps == 0 || steps < n {
		// Non-finite state or an early abort: a full evaluation of an
		// invalid model. Classify unlabeled aborts (the simulator
		// stopped before the per-day hook could see the bad value) as
		// NaN quarantines.
		if reason == ReasonOK && (math.IsInf(sse, 1) || steps > 0) {
			reason = ReasonNaN
		}
		return math.Inf(1), true, steps, reason
	}
	return math.Sqrt(sse / float64(n)), true, steps, ReasonOK
}

// PredictIndividual simulates an individual's revised process over an
// arbitrary forcing window (e.g. the test period) and returns the
// prediction series. It shares no state with the evaluator's caches.
func PredictIndividual(ind *gp.Individual, consts []bio.Constant, forcing [][]float64, sim bio.SimConfig) ([]float64, error) {
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return nil, err
	}
	phy, zoo, err := grammar.SplitSystem(derived)
	if err != nil {
		return nil, err
	}
	phy, zoo = expr.Simplify(phy), expr.Simplify(zoo)
	if err := grammar.BindSystem(phy, zoo, consts); err != nil {
		return nil, err
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		return nil, err
	}
	return sys.Predict(forcing, ind.Params, sim), nil
}

// ModelExprs returns the simplified, human-readable derivative expressions
// of an individual.
func ModelExprs(ind *gp.Individual) (phy, zoo *expr.Node, err error) {
	derived, err := ind.Deriv.Derive()
	if err != nil {
		return nil, nil, err
	}
	phy, zoo, err = grammar.SplitSystem(derived)
	if err != nil {
		return nil, nil, err
	}
	return expr.Simplify(phy), expr.Simplify(zoo), nil
}

var (
	_ gp.Evaluator      = (*Evaluator)(nil)
	_ gp.BatchEvaluator = (*Evaluator)(nil)
)
