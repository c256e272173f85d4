package gp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gmr/internal/obs"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

// TAG3P settings fixed by Appendix B of the paper and its journal
// version; no caller varies them.
const (
	// tournamentSize is the selection tournament size.
	tournamentSize = 5
	// eliteSize individuals are copied unchanged into the next generation
	// and are never displaced by migrants.
	eliteSize = 2
	// gaussPerParam is the probability that Gaussian mutation perturbs
	// each individual constant (at least one is always perturbed).
	gaussPerParam = 0.25
	// initSizeSlack bounds the initial derivation sizes to
	// min(MaxSize, MinSize+initSizeSlack): model revision starts from the
	// knowledge-based process with small random revisions and grows them
	// under selection, rather than from heavily mutated processes.
	initSizeSlack = 6
)

// Operator probabilities (paper: 0.3/0.3/0.3/0.1). They are variables,
// not constants, because pickOperator adds them in float64 at run time:
// the sum is 0.9999999999999999 and the second partial sum
// 0.8999999999999999, where untyped constant arithmetic would give
// exactly 1 and 0.9 and move the selection thresholds.
var pCrossover, pSubtreeMut, pGaussMut, pReplication = 0.3, 0.3, 0.3, 0.1

// Config holds the TAG3P parameters (Section III-B2 and Appendix B).
type Config struct {
	// PopSize is the population size (paper: 200 for GMR).
	PopSize int
	// MaxGen is the number of generations (paper: 100). The
	// Gaussian-mutation σ ramps down linearly over the final MaxGen/2
	// generations (Section III-B3).
	MaxGen int
	// MinSize and MaxSize bound derivation-tree sizes (paper: 2, 50).
	MinSize, MaxSize int
	// LocalSearchSteps per offspring (paper: 5); each step proposes an
	// insertion, a deletion or a Gaussian parameter move, 1/3 each, and
	// keeps it only if fitness improves (stochastic hill climbing). The
	// generation's champion additionally gets 4×LocalSearchSteps
	// parameter hill-climbing steps after selection: structural revisions
	// only pay off once the constants co-adapt, so the champion gets an
	// intensive calibration pass each generation (model calibration inside
	// model revision).
	LocalSearchSteps int
	// Priors are the per-parameter Gaussian-mutation priors, aligned
	// with Individual.Params. Unless InitParams is set, every individual
	// starts at the prior means (Section III-B3: "In the beginning,
	// parameters are set to the expected value").
	Priors []Prior
	// InitParams, when non-nil, overrides the initial parameter vector
	// for every individual (e.g. a pre-calibrated starting point — the
	// expert parameter values that model revision receives as input
	// along with the initial structure).
	InitParams []float64
	// SeedIndividuals are cloned into the initial population before the
	// random derivations are drawn (e.g. the unrevised input process
	// itself, so the search starts no worse than its knowledge-based
	// baseline).
	SeedIndividuals []*Individual
	// Seed drives all randomness of the run.
	Seed int64
	// Workers bounds evaluation parallelism; zero means GOMAXPROCS and a
	// negative count is an error.
	Workers int
	// Tracer records per-generation phase spans (gp.variation,
	// gp.evaluate, gp.refine_elite, gp.init_pop) on the unified
	// observability plane. Nil disables tracing at zero cost; it is
	// runtime wiring, not checkpointable configuration.
	Tracer *obs.Tracer `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 200
	}
	if c.MaxGen == 0 {
		c.MaxGen = 100
	}
	if c.MinSize == 0 {
		c.MinSize = 2
	}
	if c.MaxSize == 0 {
		c.MaxSize = 50
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// GenStats summarizes one generation.
type GenStats struct {
	Gen         int
	BestFitness float64
	MeanFitness float64
	BestSize    int
	Evaluations int
}

// Result is the outcome of a run.
type Result struct {
	// Best is the best individual ever seen (a clone).
	Best *Individual
	// Final is the last generation's population, fitness-sorted.
	Final []*Individual
	// History holds per-generation statistics.
	History []GenStats
	// Evaluations counts Evaluate calls issued by the engine.
	Evaluations int
}

// Engine runs TAG3P over a grammar with a fitness evaluator.
//
// Two drive modes are supported. Run executes the whole loop in one call,
// stopping early when its context is cancelled. Alternatively, callers
// needing pause/migration/checkpoint control step the engine explicitly:
// Start (initialize or resume), StepGen (one generation), Snapshot/Restore
// (serializable state at a generation boundary), and Close (release the
// worker pool). The island orchestrator uses the step surface.
type Engine struct {
	cfg  Config
	g    *tag.Grammar
	eval Evaluator
	// ce is eval's ClusterEvaluator facet, resolved once at construction;
	// nil when eval does not implement it. The scheduler then runs every
	// individual as a key-less singleton through Evaluate, and champion
	// refinement draws one proposal per round.
	ce  ClusterEvaluator
	rng *stats.RNG

	// Cluster-partition scratch, reused across generations so the
	// steady-state dispatch path of evaluatePop allocates nothing: the
	// flat cluster-grouped member order, per-cluster end offsets, the
	// key→cluster index, per-member cluster ids, and placement cursors.
	clusterOrder  []*Individual
	clusterEnds   []int
	clusterIdx    map[string]int
	clusterID     []int
	clusterCounts []int
	clusterCur    []int

	evaluations int

	// Stepping state: the current fitness-sorted population, the
	// completed-generation counter, the best-ever individual, and the
	// per-generation history. Populated by Start (or Restore) and
	// advanced by StepGen.
	pop     []*Individual
	gen     int
	best    *Individual
	history []GenStats

	// jobCh feeds the persistent evaluation worker pool; non-nil only
	// between Start and Close (see startWorkers).
	jobCh       chan evalJob
	workerWG    sync.WaitGroup
	stopWorkers func()

	// quarantined counts evaluations that panicked and were recovered by
	// the worker pool's panic isolation (the individual's fitness is
	// forced to +Inf). Observability only: it is not checkpoint state and
	// restarts from zero on Restore.
	quarantined atomic.Int64

	// Progress mirror: gen/best/evaluations as atomics, written at
	// generation barriers (Start, StepGen, ReplaceWorst, Restore) so
	// metric scrapes from other goroutines never race the stepping
	// goroutine's plain fields.
	obsGen   atomic.Int64
	obsBest  atomic.Uint64 // math.Float64bits; +Inf before any evaluation
	obsEvals atomic.Int64
}

// Progress is a race-safe snapshot of the engine's externally observable
// state, taken from atomics updated at generation barriers. Safe to call
// from any goroutine, concurrently with StepGen.
type Progress struct {
	Gen         int
	Best        float64 // best-ever fitness; +Inf before any evaluation
	Evaluations int
}

// Progress returns the barrier-consistent progress snapshot.
func (e *Engine) Progress() Progress {
	return Progress{
		Gen:         int(e.obsGen.Load()),
		Best:        math.Float64frombits(e.obsBest.Load()),
		Evaluations: int(e.obsEvals.Load()),
	}
}

// RegisterObs publishes the engine's progress mirror on an obs registry as
// scrape-time series — gmr_gp_generation, gmr_gp_best_fitness and
// gmr_gp_evaluations_total — under the given labels (a run or an island).
// The callbacks read Progress, so a scrape never races the stepping
// goroutine. No-op without a registry.
func (e *Engine) RegisterObs(r *obs.Registry, labels obs.Labels) {
	if r == nil {
		return
	}
	r.GaugeFunc("gmr_gp_generation",
		"Completed generations (barrier-consistent).", labels,
		func() float64 { return float64(e.Progress().Gen) })
	r.GaugeFunc("gmr_gp_best_fitness",
		"Best-ever fitness (+Inf before any finite model).", labels,
		func() float64 { return e.Progress().Best })
	r.CounterFunc("gmr_gp_evaluations_total",
		"Cumulative fitness evaluations.", labels,
		func() float64 { return float64(e.Progress().Evaluations) })
}

// noteProgress publishes the stepping goroutine's state to the atomic
// mirror; called at every generation barrier.
func (e *Engine) noteProgress() {
	e.obsGen.Store(int64(e.gen))
	if e.best != nil {
		e.obsBest.Store(math.Float64bits(e.best.Fitness))
	}
	e.obsEvals.Store(int64(e.evaluations))
}

// evalJob is one unit of work for the evaluation worker pool: a
// structure-resolution job (resolve, phase 0 of the scheduler), a chunk of
// same-structure members to score (cluster, phase 1; with sweep, champion
// refinement's parameter proposals), or an individual to evaluate if it is
// not yet, followed by the optional follow-up (local search, phase 2) with
// the job's pre-split RNG stream. resolve and cluster are plain fields
// rather than closures so the per-generation dispatch allocates nothing.
type evalJob struct {
	ind      *Individual
	rng      *rand.Rand
	followUp func(*Individual, *rand.Rand) int
	resolve  *Individual
	cluster  []*Individual
	sweep    bool
	wg       *sync.WaitGroup
	evals    *atomic.Int64
}

// startWorkers launches the persistent evaluation workers for one Run.
// A fixed pool replaces the former goroutine-per-individual + channel
// semaphore: workers live for the whole run, so per-goroutine evaluator
// scratch (register files, simulation buffers, key builders — pooled inside
// the evaluator) stays warm across generations instead of being
// re-allocated for every individual. The returned stop function drains and
// joins the pool.
func (e *Engine) startWorkers() func() {
	e.jobCh = make(chan evalJob, 2*e.cfg.Workers)
	for i := 0; i < e.cfg.Workers; i++ {
		e.workerWG.Add(1)
		go func() {
			defer e.workerWG.Done()
			for j := range e.jobCh {
				e.runJob(j)
			}
		}()
	}
	return func() {
		close(e.jobCh)
		e.workerWG.Wait()
		e.jobCh = nil
	}
}

// runJob executes one worker-pool job with panic isolation: whatever
// happens inside the evaluation or its follow-up, wg.Done always runs, so a
// panicking candidate can never deadlock the generation barrier or kill the
// batch. Evaluation panics are contained per-individual by safeEvaluate;
// this outer recover is the backstop for panics escaping the follow-up
// closure itself. Isolation preserves the Workers=1-vs-N determinism
// contract because a panic decision is a property of the individual being
// evaluated, not of scheduling.
func (e *Engine) runJob(j evalJob) {
	n := 0
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if j.ind != nil {
				e.quarantine(j.ind)
			}
			j.evals.Add(int64(n))
		}
	}()
	if j.resolve != nil {
		e.ce.ResolveStruct(j.resolve)
		return
	}
	if j.cluster != nil {
		e.runCluster(j.cluster, j.sweep)
		n = len(j.cluster)
		j.evals.Add(int64(n))
		return
	}
	if !j.ind.Evaluated {
		e.safeEvaluate(j.ind)
		n++
	}
	if j.followUp != nil {
		n += j.followUp(j.ind, j.rng)
	}
	j.evals.Add(int64(n))
}

// safeEvaluate runs one evaluation with panic isolation: a panicking
// evaluator (an injected fault or a genuine bug in a pathological
// candidate) is recovered and the individual is quarantined with +Inf
// fitness, so selection discards it and the run continues.
func (e *Engine) safeEvaluate(ind *Individual) {
	defer func() {
		if r := recover(); r != nil {
			e.quarantine(ind)
		}
	}()
	e.eval.Evaluate(ind)
}

// quarantine marks an individual whose evaluation panicked: +Inf fitness
// (always loses), evaluated (never re-run), counted.
func (e *Engine) quarantine(ind *Individual) {
	ind.Fitness = math.Inf(1)
	ind.Evaluated = true
	ind.FullEval = true
	e.quarantined.Add(1)
}

// Quarantines returns the number of evaluations recovered from a panic so
// far (observability; resets on Restore, like the evaluator cache
// counters).
func (e *Engine) Quarantines() int64 { return e.quarantined.Load() }

// NewEngine validates the configuration and constructs an engine.
func NewEngine(g *tag.Grammar, eval Evaluator, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if g == nil || eval == nil {
		return nil, fmt.Errorf("gp: grammar and evaluator are required")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinSize < 1 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("gp: invalid size bounds [%d, %d]", cfg.MinSize, cfg.MaxSize)
	}
	if cfg.PopSize < 2 {
		return nil, fmt.Errorf("gp: population size %d too small", cfg.PopSize)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("gp: negative worker count %d", cfg.Workers)
	}
	e := &Engine{cfg: cfg, g: g, eval: eval, rng: stats.NewRNG(cfg.Seed)}
	e.ce, _ = eval.(ClusterEvaluator)
	e.obsBest.Store(math.Float64bits(math.Inf(1)))
	return e, nil
}

// initialParams is the starting parameter vector of a drawn individual:
// InitParams when set, the prior means otherwise.
func (e *Engine) initialParams() []float64 {
	if e.cfg.InitParams != nil {
		return append([]float64(nil), e.cfg.InitParams...)
	}
	ps := make([]float64, len(e.cfg.Priors))
	for i, p := range e.cfg.Priors {
		ps[i] = p.Mean
	}
	return ps
}

// sigmaScale implements the linear ramp-down of mutation σ over the final
// MaxGen/2 generations, from 1 down to 0.05, so late generations make
// fine-grained parameter adjustments (Section III-B3).
func (e *Engine) sigmaScale(gen int) float64 {
	ramp := e.cfg.MaxGen / 2
	startRamp := e.cfg.MaxGen - ramp
	if gen < startRamp || ramp <= 0 {
		return 1
	}
	frac := float64(gen-startRamp) / float64(ramp)
	return 1 - 0.95*frac
}

// Run executes the full evolutionary loop of Figure 5 and returns the
// result. It is deterministic for a fixed Config (including Seed) and
// evaluator behavior. Run is Start + StepGen×MaxGen + Result, stopping after
// the generation in which ctx is cancelled with the result so far; callers
// that need to pause or checkpoint drive the step surface themselves.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	if err := e.Start(); err != nil {
		return nil, err
	}
	defer e.Close()
	for !e.Done() {
		if err := e.StepGen(); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return e.Result(), nil
}

// Start launches the evaluation worker pool and, unless state was installed
// by Restore, builds and evaluates the initial population (generation 0).
// It is idempotent.
func (e *Engine) Start() error {
	if e.jobCh == nil {
		e.stopWorkers = e.startWorkers()
	}
	if e.pop != nil {
		return nil // resumed from a snapshot, or already started
	}
	cfg := e.cfg
	span := cfg.Tracer.Start("gp.init_pop")
	defer span.End()
	pop := make([]*Individual, 0, cfg.PopSize)
	for _, seed := range cfg.SeedIndividuals {
		if len(pop) < cfg.PopSize {
			pop = append(pop, seed.Clone())
		}
	}
	initMax := min(cfg.MaxSize, cfg.MinSize+initSizeSlack)
	for len(pop) < cfg.PopSize {
		d, err := e.g.RandomDeriv(e.rng.Rand, cfg.MinSize, initMax)
		if err != nil {
			return err
		}
		pop = append(pop, NewIndividual(d, e.initialParams()))
	}
	e.evaluatePop(pop, nil)
	sortByFitness(pop)
	e.pop = pop
	e.gen = 0
	e.best = pop[0].Clone()
	e.history = []GenStats{e.genStats(0, pop)}
	e.noteProgress()
	return nil
}

// StepGen advances the engine by exactly one generation: selection,
// variation, parallel evaluation + local search, elitist replacement, and
// champion refinement. Start must have been called.
func (e *Engine) StepGen() error {
	if e.pop == nil || e.jobCh == nil {
		return fmt.Errorf("gp: StepGen before Start")
	}
	cfg := e.cfg
	pop := e.pop
	gen := e.gen + 1
	span := cfg.Tracer.Start("gp.variation")
	next := make([]*Individual, 0, cfg.PopSize)
	for i := 0; i < eliteSize && i < len(pop); i++ {
		next = append(next, pop[i].Clone())
	}
	var fresh []*Individual
	sigma := e.sigmaScale(gen)
	sel := func() *Individual {
		return e.selectParent(pop)
	}
	for len(next)+len(fresh) < cfg.PopSize {
		op := e.pickOperator()
		switch op {
		case opCrossover:
			a := sel()
			b := sel()
			c1, c2 := Crossover(e.rng.Rand, a, b, cfg.MinSize, cfg.MaxSize)
			fresh = append(fresh, c1)
			if len(next)+len(fresh) < cfg.PopSize {
				fresh = append(fresh, c2)
			}
		case opSubtree:
			fresh = append(fresh, SubtreeMutation(e.rng.Rand, e.g, sel(), cfg.MaxSize))
		case opGauss:
			fresh = append(fresh, GaussianMutation(e.rng.Rand, sel(), cfg.Priors, sigma, gaussPerParam))
		default: // replication
			fresh = append(fresh, sel().Clone())
		}
	}
	span.End()
	// Evaluate offspring, then run local search on each (both inside one
	// evaluation batch, local search with per-individual RNG streams).
	span = cfg.Tracer.Start("gp.evaluate")
	e.evaluatePop(fresh, e.localSearch)
	span.End()
	next = append(next, fresh...)
	pop = next
	sortByFitness(pop)
	span = cfg.Tracer.Start("gp.refine_elite")
	e.refineElite(pop[0], sigma)
	span.End()
	sortByFitness(pop)
	if pop[0].Fitness < e.best.Fitness {
		e.best = pop[0].Clone()
	}
	e.pop = pop
	e.gen = gen
	e.history = append(e.history, e.genStats(gen, pop))
	e.noteProgress()
	return nil
}

// Close drains and releases the evaluation worker pool. The engine's state
// remains readable (Population, Result); calling Start again relaunches
// the pool. Close is idempotent.
func (e *Engine) Close() {
	if e.stopWorkers != nil {
		e.stopWorkers()
		e.stopWorkers = nil
	}
}

// Done reports whether the engine has completed its MaxGen generations.
func (e *Engine) Done() bool { return e.gen >= e.cfg.MaxGen }

// Population returns the current fitness-sorted population. The slice and
// its individuals are owned by the engine; callers must not mutate them.
func (e *Engine) Population() []*Individual { return e.pop }

// LastStats returns the most recent generation's statistics.
func (e *Engine) LastStats() GenStats {
	if len(e.history) == 0 {
		return GenStats{}
	}
	return e.history[len(e.history)-1]
}

// Result assembles the run outcome from the engine's current state.
func (e *Engine) Result() *Result {
	res := &Result{
		Final:       e.pop,
		History:     append([]GenStats(nil), e.history...),
		Evaluations: e.evaluations,
	}
	if e.best != nil {
		res.Best = e.best.Clone()
	}
	return res
}

// ReplaceWorst injects clones of the given migrants over the worst
// individuals of the current population (island-model elite migration), then
// re-sorts and updates the best-ever individual. At most PopSize-eliteSize
// individuals are replaced, so resident elites always survive; migration is
// deterministic and draws no randomness. It returns the number injected.
func (e *Engine) ReplaceWorst(migrants []*Individual) int {
	if e.pop == nil {
		return 0
	}
	n := len(migrants)
	if max := len(e.pop) - eliteSize; n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		e.pop[len(e.pop)-1-i] = migrants[i].Clone()
	}
	sortByFitness(e.pop)
	if e.best == nil || e.pop[0].Fitness < e.best.Fitness {
		e.best = e.pop[0].Clone()
	}
	e.noteProgress()
	return n
}

type operator int

const (
	opCrossover operator = iota
	opSubtree
	opGauss
	opReplicate
)

func (e *Engine) pickOperator() operator {
	total := pCrossover + pSubtreeMut + pGaussMut + pReplication
	r := e.rng.Float64() * total
	switch {
	case r < pCrossover:
		return opCrossover
	case r < pCrossover+pSubtreeMut:
		return opSubtree
	case r < pCrossover+pSubtreeMut+pGaussMut:
		return opGauss
	default:
		return opReplicate
	}
}

// localSearch applies stochastic hill climbing (Section III-D): at each
// step, propose an insertion, a deletion, or a small Gaussian parameter
// move with equal probability, and adopt the change only if it improves
// fitness. The individual is assumed evaluated.
//
// The parameter move extends the paper's insertion/deletion pair: in this
// landscape a structural revision only pays off once the constants
// co-adapt (adding a correct term to an already-calibrated process first
// makes it worse), so hill climbing must be able to follow a structural
// step with parameter steps inside the same search chain.
func (e *Engine) localSearch(ind *Individual, rng *rand.Rand) int {
	evals := 0
	for step := 0; step < e.cfg.LocalSearchSteps; step++ {
		var cand *Individual
		switch rng.Intn(3) {
		case 0:
			cand = Insertion(rng, e.g, ind, e.cfg.MaxSize)
		case 1:
			cand = Deletion(rng, ind, e.cfg.MinSize)
		default:
			cand = GaussianMutation(rng, ind, e.cfg.Priors, 0.3, gaussPerParam)
		}
		if cand == nil {
			continue
		}
		e.safeEvaluate(cand) // a panicking candidate is +Inf: never adopted
		evals++
		if cand.Fitness < ind.Fitness {
			*ind = *cand
		}
	}
	return evals
}

// selectParent runs tournament selection: the fittest of tournamentSize
// uniform draws wins, the earliest draw on ties.
func (e *Engine) selectParent(pop []*Individual) *Individual {
	best := pop[e.rng.Intn(len(pop))]
	for i := 1; i < tournamentSize; i++ {
		c := pop[e.rng.Intn(len(pop))]
		if c.Fitness < best.Fitness {
			best = c
		}
	}
	return best
}

// refineElite hill-climbs the constants of the generation's champion with
// annealed Gaussian steps, adopting only improvements.
//
// It runs as a (1+λ) evolution strategy: each round draws λ proposals from
// the current champion under the same annealing schedule (scales indexed by
// global proposal number), scores them on the worker pool, and adopts the
// best improving proposal — the lowest index on ties, matching in-order
// sequential adoption. With a ClusterEvaluator λ = laneChunk, and the
// parameter-only proposals are scored as one sweep chunk,
// amortizing structure resolution and exogenous hoisting over the round
// (DESIGN.md §10). Without it λ = 1: each round draws, evaluates and adopts
// one proposal, a sequential hill-climbing chain.
func (e *Engine) refineElite(ind *Individual, sigma float64) {
	steps := 4 * e.cfg.LocalSearchSteps
	if steps <= 0 {
		return
	}
	lambda := 1
	if e.ce != nil {
		lambda = laneChunk
	}
	e.eval.BeginBatch()
	defer e.eval.EndBatch()
	cands := make([]*Individual, 0, lambda)
	for done := 0; done < steps; done += len(cands) {
		n := min(lambda, steps-done)
		cands = cands[:0]
		for i := 0; i < n; i++ {
			scale := sigma * (0.5 - 0.4*float64(done+i)/float64(steps))
			cands = append(cands, GaussianMutation(e.rng.Rand, ind, e.cfg.Priors, scale, gaussPerParam))
		}
		e.evaluateProposals(ind, cands)
		e.evaluations += n // one evaluation per proposal
		for _, cand := range cands {
			if cand.Fitness < ind.Fitness {
				*ind = *cand
			}
		}
	}
}

// laneChunk is the fan-out granularity of batched evaluation: champion
// refinement draws this many proposals per round, and both refinement and
// the clustered population scheduler split same-structure member lists
// into chunks of this size, each dispatched to the worker pool as one job.
// The size matches expr.Lanes so each chunk fills one lane-batched kernel
// dispatch, and it is a constant (never derived from Workers), so the work
// partition — and therefore every evaluated fitness — is identical for any
// worker count, preserving the Workers=1-vs-N determinism contract.
const laneChunk = 8

// evaluateProposals scores one round of refinement proposals. With a
// ClusterEvaluator, proposals that kept the champion's memoized structure
// key are parameter-only moves over one structure and go to runCluster as
// one sweep chunk (a round holds at most laneChunk proposals); literal
// perturbations (cleared key), and every proposal of a plain Evaluator, are
// dispatched as ordinary evaluation jobs.
func (e *Engine) evaluateProposals(base *Individual, cands []*Individual) {
	var batch, solo []*Individual
	if key := base.StructKey(); key != "" && e.ce != nil {
		for _, c := range cands {
			if c.StructKey() == key {
				batch = append(batch, c)
			} else {
				solo = append(solo, c)
			}
		}
	} else {
		solo = cands
	}
	var wg sync.WaitGroup
	var evals atomic.Int64 // refineElite counts proposals deterministically; this absorbs job accounting
	if len(batch) > 0 {
		wg.Add(1)
		e.jobCh <- evalJob{cluster: batch, sweep: true, wg: &wg, evals: &evals}
	}
	for _, c := range solo {
		wg.Add(1)
		e.jobCh <- evalJob{ind: c, wg: &wg, evals: &evals}
	}
	wg.Wait()
}

// evaluatePop evaluates all unevaluated individuals on the persistent
// worker pool (one batch: shared evaluator state is frozen) and then runs
// the optional per-individual follow-up (local search) inside the same
// batch. RNG streams are pre-split per individual, in population order and
// before any job is dispatched, so the run is deterministic regardless of
// scheduling and worker count.
//
// The batch runs through the structure-clustered scheduler (DESIGN.md §14):
// resolve+memoize every structure key in parallel, partition the population
// by key, and score each cluster in laneChunk-sized jobs, one evaluator
// call (at most one lane launch) per job. The partition depends only on the
// memoized keys (fixed before any evaluation is dispatched), and per-member
// semantics inside a cluster equal sequential evaluation, so fitnesses stay
// bitwise identical for any worker count. A plain Evaluator skips the
// resolve phase and runs every individual as a singleton through Evaluate.
func (e *Engine) evaluatePop(pop []*Individual, followUp func(*Individual, *rand.Rand) int) {
	// The per-individual RNG streams feed only the follow-up (local
	// search), and splitting one stream per member is measurable against a
	// lane-batched evaluation, so the split is skipped entirely when there
	// is no follow-up.
	var rngs []*rand.Rand
	if followUp != nil {
		rngs = make([]*rand.Rand, len(pop))
		for i := range pop {
			rngs[i] = stats.Split(e.rng.Rand)
		}
	}
	e.eval.BeginBatch()
	var wg sync.WaitGroup
	var evals atomic.Int64
	// Phase 0: resolve and memoize every unevaluated individual's structure
	// key in parallel. This is the counted resolution step of an
	// Evaluate call (tier-1 hit or derive+compile), hoisted ahead of the
	// partition; EvaluateCluster will not resolve again.
	for _, ind := range pop {
		if ind.Evaluated || e.ce == nil {
			continue
		}
		wg.Add(1)
		e.jobCh <- evalJob{resolve: ind, wg: &wg, evals: &evals}
	}
	wg.Wait()
	// Phase 1: partition by memoized key (population order, first-seen
	// cluster order — worker-count independent) and fan each cluster out in
	// laneChunk-sized jobs, one lane-batched kernel dispatch per job.
	order, ends := e.clusterPop(pop)
	start := 0
	for _, end := range ends {
		cluster := order[start:end]
		start = end
		for cs := 0; cs < len(cluster); cs += laneChunk {
			chunk := cluster[cs:min(cs+laneChunk, len(cluster))]
			wg.Add(1)
			e.jobCh <- evalJob{cluster: chunk, wg: &wg, evals: &evals}
		}
	}
	wg.Wait()
	// Phase 2: the follow-up (local search) runs per individual with the
	// pre-split RNG streams.
	if followUp != nil {
		wg.Add(len(pop))
		for i, ind := range pop {
			e.jobCh <- evalJob{ind: ind, rng: rngs[i], followUp: followUp, wg: &wg, evals: &evals}
		}
		wg.Wait()
	}
	e.eval.EndBatch()
	e.evaluations += int(evals.Load())
}

// clusterPop partitions the population's unevaluated individuals into
// same-structure clusters: members sharing a memoized structure key group
// together (population order within a cluster, first-seen order across
// clusters); key-less individuals (failed derivations) are singletons.
// A plain Evaluator's individuals are all singletons.
// The partition is returned as a flat cluster-grouped member order plus
// per-cluster end offsets, built in reusable engine scratch — the steady
// state allocates nothing.
func (e *Engine) clusterPop(pop []*Individual) (order []*Individual, ends []int) {
	counts := e.clusterCounts[:0]
	ids := e.clusterID[:0]
	if e.clusterIdx == nil {
		e.clusterIdx = make(map[string]int, len(pop))
	} else {
		clear(e.clusterIdx)
	}
	// Pass 1: assign each unevaluated member a cluster id (first-seen
	// order; key-less members get a fresh singleton id) and count sizes.
	for _, ind := range pop {
		if ind.Evaluated {
			continue
		}
		key := ind.StructKey()
		if key == "" || e.ce == nil {
			ids = append(ids, len(counts))
			counts = append(counts, 1)
			continue
		}
		j, ok := e.clusterIdx[key]
		if !ok {
			j = len(counts)
			e.clusterIdx[key] = j
			counts = append(counts, 0)
		}
		ids = append(ids, j)
		counts[j]++
	}
	// Prefix the sizes into end offsets and placement cursors.
	ends = e.clusterEnds[:0]
	cur := e.clusterCur[:0]
	off := 0
	for _, c := range counts {
		if e.ce != nil {
			e.ce.NoteCluster(c)
		}
		cur = append(cur, off)
		off += c
		ends = append(ends, off)
	}
	// Pass 2: place members into their cluster's run, population order
	// within each cluster.
	order = e.clusterOrder
	if cap(order) < off {
		order = make([]*Individual, off, len(pop))
	}
	order = order[:off]
	k := 0
	for _, ind := range pop {
		if ind.Evaluated {
			continue
		}
		id := ids[k]
		k++
		order[cur[id]] = ind
		cur[id]++
	}
	e.clusterOrder, e.clusterEnds = order, ends
	e.clusterCounts, e.clusterID, e.clusterCur = counts, ids, cur
	return order, ends
}

// runCluster scores one chunk of same-structure members with panic
// isolation: a population cluster through EvaluateCluster, or with sweep a
// refinement round's parameter proposals through EvaluateParamBatch. Both
// commit every member preceding a panicking one (the ClusterEvaluator
// panic protocol), so on recovery the first still-unevaluated member is the
// panicker: quarantine it — same decision, same +Inf as safeEvaluate —
// and re-invoke on the remainder until the chunk is done.
// A plain Evaluator's chunk is one singleton, scored by safeEvaluate.
func (e *Engine) runCluster(chunk []*Individual, sweep bool) {
	if e.ce == nil {
		e.safeEvaluate(chunk[0])
		return
	}
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					ok = false
				}
			}()
			if sweep {
				e.ce.EvaluateParamBatch(chunk)
			} else {
				e.ce.EvaluateCluster(chunk)
			}
			return true
		}()
		if ok {
			return
		}
		var rest []*Individual
		for _, ind := range chunk {
			if !ind.Evaluated {
				rest = append(rest, ind)
			}
		}
		if len(rest) == 0 {
			return // panic after every member committed (not the protocol, but terminal)
		}
		e.quarantine(rest[0])
		if len(rest) == 1 {
			return
		}
		chunk = rest[1:]
	}
}

// EvaluatePopulation evaluates every unevaluated individual of pop through
// the engine's generation evaluation path, launching the worker pool if
// Start has not run. With no follow-up it draws no RNG splits, exactly like
// a generation's evaluation phase. Exported for benchmarks and differential
// tests that drive the population path without a full run; call Close to
// release the pool.
func (e *Engine) EvaluatePopulation(pop []*Individual) {
	if e.jobCh == nil {
		e.stopWorkers = e.startWorkers()
	}
	e.evaluatePop(pop, nil)
	e.noteProgress()
}

func (e *Engine) genStats(gen int, pop []*Individual) GenStats {
	mean, n := 0.0, 0
	for _, ind := range pop {
		if !math.IsInf(ind.Fitness, 1) {
			mean += ind.Fitness
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return GenStats{
		Gen:         gen,
		BestFitness: pop[0].Fitness,
		MeanFitness: mean,
		BestSize:    pop[0].Size(),
		Evaluations: e.evaluations,
	}
}

func sortByFitness(pop []*Individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].Fitness < pop[j].Fitness })
}
