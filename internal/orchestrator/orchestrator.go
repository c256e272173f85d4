// Package orchestrator runs GMR as an island model: N independent
// gp.Engines (each with its own split RNG stream and its own evaluator)
// advance in generation lockstep, periodically exchanging top-k elites
// around a ring, with crash-safe checkpoint/resume and a JSONL telemetry
// stream.
//
// The paper's headline results are aggregates over many independent TAG3P
// runs; the island model turns those isolated restarts into a cooperating
// search (migrated elites seed neighboring populations) while keeping every
// island's evolution deterministic. Determinism contract (DESIGN.md §8):
//
//   - Islands interact only at generation barriers (migration), and
//     migration is RNG-free (top-k by fitness into worst-k of the next
//     island), so a run is a pure function of the Config.
//   - A run checkpointed at generation G/2 and resumed produces bitwise-
//     identical results to an uninterrupted run, provided the evaluator
//     computes fitness as a pure function of (structure, params) — true for
//     evalx with short-circuiting disabled. With short-circuiting enabled,
//     the committed reference is carried through the checkpoint, but
//     cache-warmth differences can still perturb surrogate (short-circuited)
//     fitnesses.
//
// Checkpoints are atomic (temp file + rename) versioned JSON snapshots;
// a truncated or corrupted file is rejected with a descriptive error. Every
// write rotates the previous checkpoint to a ".bak" last-good backup, and
// Resume falls back to it (with a telemetry event) when the primary file is
// corrupted — see checkpoint.go and the fault-injection hooks (Config.Faults)
// that chaos tests use to provoke torn writes, worker panics, and NaN
// cascades on demand.
package orchestrator

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"gmr/internal/evalx"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/obs"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

// Config configures an island run.
type Config struct {
	// Islands is the number of islands (default 4).
	Islands int
	// MigrationEvery is the number of generations between elite
	// migrations (default 5); negative disables migration.
	MigrationEvery int
	// Migrants is the number of elites each island sends to its ring
	// successor per migration (default 2).
	Migrants int
	// GP is the per-island engine configuration. GP.MaxGen is the total
	// generation budget; GP.Seed is the master seed from which each
	// island's independent stream is split.
	GP gp.Config
	// Grammar is the shared TAG (engines never mutate it).
	Grammar *tag.Grammar
	// NewEvaluator builds island i's evaluator. Each island must get its
	// own evaluator instance: sharing one would couple islands through
	// the short-circuiting reference and break determinism.
	NewEvaluator func(island int) gp.Evaluator
	// ConfigureIsland, when non-nil, post-processes island i's engine
	// config (after the per-island seed is assigned) — e.g. per-island
	// pre-calibrated InitParams or seed individuals. New calls it for
	// every island concurrently, one goroutine per island, so it must be
	// safe for concurrent calls with different islands; its result must
	// depend only on (island, cfg) for a run to stay deterministic.
	ConfigureIsland func(island int, cfg gp.Config) gp.Config
	// CheckpointPath, when non-empty, enables checkpointing: a snapshot
	// is written atomically every CheckpointEvery generations, on
	// context cancellation, and after the final generation.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in generations (default
	// 10); negative checkpoints only on cancellation and completion.
	CheckpointEvery int
	// Telemetry, when non-nil, receives the JSONL run telemetry.
	Telemetry io.Writer
	// Faults, when non-nil, is the run's fault injector. The orchestrator
	// uses it for checkpoint-write truncation (the Truncate class) and
	// reports its injection tally in the run_end telemetry record; pass
	// the same injector to the evaluators (evalx.Options.Faults) so one
	// counter set covers the whole run.
	Faults *faultinject.Injector
	// Obs, when non-nil, is the unified observability registry: New
	// registers per-island progress gauges and evaluator counter families
	// on it (see obs.go), and Run appends a per-generation "obs" registry
	// snapshot record to the telemetry stream. Nil keeps the stream
	// byte-identical to the pre-registry format.
	Obs *obs.Registry
	// Tracer, when non-nil, records orchestration spans (orch.generation,
	// orch.migrate, orch.checkpoint) and is handed to every island engine
	// for its per-phase spans. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Islands == 0 {
		c.Islands = 4
	}
	if c.MigrationEvery == 0 {
		c.MigrationEvery = 5
	}
	if c.Migrants == 0 {
		c.Migrants = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	return c
}

// Result is the outcome of an island run.
type Result struct {
	// Best is the best individual across all islands (a clone).
	Best *gp.Individual
	// BestIsland is the island that produced Best.
	BestIsland int
	// PerIsland holds each island's engine result, in island order.
	PerIsland []*gp.Result
	// Generations is the number of completed generations (equals the
	// budget unless the run was interrupted).
	Generations int
	// Migrations counts migration events (island-to-island transfers).
	Migrations int
	// Interrupted reports that the run stopped early on context
	// cancellation (after writing a checkpoint when configured).
	Interrupted bool
}

// Orchestrator drives the islands. Construct with New, optionally Resume
// from a checkpoint, then Run.
type Orchestrator struct {
	cfg     Config
	engines []*gp.Engine
	evals   []gp.Evaluator
	gen     int
	migs    int
	tele    *telemetry
	resumed bool
}

// New validates the configuration and builds the islands. Island i's engine
// seed is the i-th draw of a splittable stream over GP.Seed, so island
// streams are independent yet reproducible from the one master seed.
// ConfigureIsland runs for all islands concurrently; evaluators and engines
// are then built one island after another.
func New(cfg Config) (*Orchestrator, error) {
	cfg = cfg.withDefaults()
	if cfg.Islands < 1 {
		return nil, fmt.Errorf("orchestrator: need at least 1 island, got %d", cfg.Islands)
	}
	if cfg.Grammar == nil || cfg.NewEvaluator == nil {
		return nil, fmt.Errorf("orchestrator: grammar and evaluator factory are required")
	}
	if cfg.GP.MaxGen <= 0 {
		return nil, fmt.Errorf("orchestrator: GP.MaxGen must be positive")
	}
	if cfg.Migrants < 0 {
		return nil, fmt.Errorf("orchestrator: Migrants must be non-negative, got %d", cfg.Migrants)
	}
	o := &Orchestrator{
		cfg:  cfg,
		tele: newTelemetry(cfg.Telemetry),
	}
	master := stats.NewRNG(cfg.GP.Seed)
	icfgs := make([]gp.Config, cfg.Islands)
	for i := range icfgs {
		icfgs[i] = cfg.GP
		icfgs[i].Seed = master.Int63()
		icfgs[i].Tracer = cfg.Tracer
	}
	if cfg.ConfigureIsland != nil {
		_ = o.parallelIslands(func(i int) error { // fn returns no error
			icfgs[i] = cfg.ConfigureIsland(i, icfgs[i])
			return nil
		})
	}
	for i, icfg := range icfgs {
		ev := cfg.NewEvaluator(i)
		eng, err := gp.NewEngine(cfg.Grammar, ev, icfg)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: island %d: %v", i, err)
		}
		o.engines = append(o.engines, eng)
		o.evals = append(o.evals, ev)
	}
	o.registerObs()
	return o, nil
}

// parallelIslands runs fn for every island concurrently and returns the
// first error (by island order, for determinism of error reporting).
//
// Each island's goroutine carries a pprof label ("island" → index), so CPU
// and heap profiles attribute samples per island (go tool pprof -tagshow
// island). Goroutines spawned inside fn — notably the gp engine's worker
// pool, started under parallelIslands — inherit the label. Within an
// island, stack frames already separate the phases: -focus KernelLanes
// selects the simulation kernel. The label costs one pprof.Do per island
// per barrier, far off any hot path.
func (o *Orchestrator) parallelIslands(fn func(i int) error) error {
	errs := make([]error, o.cfg.Islands)
	var wg sync.WaitGroup
	wg.Add(len(errs))
	for i := range errs {
		go func(i int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("island", strconv.Itoa(i)), func(context.Context) {
				errs[i] = fn(i)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("island %d: %w", i, err)
		}
	}
	return nil
}

// Run executes the island loop: lockstep generations, ring migration, and
// periodic checkpoints, until the generation budget is exhausted or ctx is
// cancelled. Cancellation is handled at generation barriers (the running
// generation completes first): a checkpoint is written when configured and
// the partial result is returned with Interrupted set.
func (o *Orchestrator) Run(ctx context.Context) (*Result, error) {
	defer func() {
		for _, e := range o.engines {
			e.Close()
		}
	}()
	// Start all islands (builds + evaluates generation-0 populations, or
	// just relaunches worker pools after a Resume).
	fresh := !o.resumed
	if err := o.parallelIslands(func(i int) error { return o.engines[i].Start() }); err != nil {
		return nil, err
	}
	o.tele.runStart(o.cfg, o.gen, o.resumed)
	if fresh {
		o.emitGenRecords() // generation 0 (initial populations)
	}

	total := o.cfg.GP.MaxGen
	interrupted := false
	for o.gen < total {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		span := o.cfg.Tracer.Start("orch.generation")
		err := o.parallelIslands(func(i int) error { return o.engines[i].StepGen() })
		span.End()
		if err != nil {
			return nil, err
		}
		o.gen++
		o.emitGenRecords()
		if o.migrationDue() {
			mspan := o.cfg.Tracer.Start("orch.migrate")
			o.migrate()
			mspan.End()
		}
		if o.cfg.CheckpointPath != "" && o.cfg.CheckpointEvery > 0 &&
			o.gen%o.cfg.CheckpointEvery == 0 && o.gen < total {
			if err := o.checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if o.cfg.CheckpointPath != "" {
		if err := o.checkpoint(); err != nil {
			return nil, err
		}
	}

	res := o.result(interrupted)
	o.tele.runEnd(res, o.Quarantines(), o.cfg.Faults.Snapshot())
	return res, nil
}

// migrationDue reports whether elites migrate after the current generation.
func (o *Orchestrator) migrationDue() bool {
	me := o.cfg.MigrationEvery
	return me > 0 && len(o.engines) > 1 && o.gen%me == 0 && o.gen < o.cfg.GP.MaxGen
}

// migrate performs one ring migration: island i's top-k elites (clones,
// collected before any injection so the exchange is simultaneous) replace
// the worst-k individuals of island (i+1) mod N. Migration is deterministic
// and draws no randomness.
func (o *Orchestrator) migrate() {
	n := len(o.engines)
	k := o.cfg.Migrants
	outbound := make([][]*gp.Individual, n)
	for i, e := range o.engines {
		pop := e.Population()
		m := k
		if m > len(pop) {
			m = len(pop)
		}
		elites := make([]*gp.Individual, m)
		for j := 0; j < m; j++ {
			elites[j] = pop[j].Clone()
		}
		outbound[i] = elites
	}
	for i := range o.engines {
		dst := (i + 1) % n
		injected := o.engines[dst].ReplaceWorst(outbound[i])
		o.migs++
		o.tele.migration(o.gen, i, dst, injected, outbound[i][0].Fitness)
	}
}

// emitGenRecords writes one telemetry record per island for the current
// generation, including the engine's panic-quarantine counter and the
// evaluator's counters when available.
func (o *Orchestrator) emitGenRecords() {
	for i, e := range o.engines {
		var cache *evalx.Stats
		if sp, ok := o.evals[i].(interface{ Stats() evalx.Stats }); ok {
			s := sp.Stats()
			cache = &s
		}
		o.tele.generation(i, e.LastStats(), e.Quarantines(), cache)
	}
	o.emitObsRecord()
}

// Quarantines totals panic-recovered evaluations across all islands.
func (o *Orchestrator) Quarantines() int64 {
	var total int64
	for _, e := range o.engines {
		total += e.Quarantines()
	}
	return total
}

// result assembles the run outcome.
func (o *Orchestrator) result(interrupted bool) *Result {
	res := &Result{
		Generations: o.gen,
		Migrations:  o.migs,
		Interrupted: interrupted,
	}
	for i, e := range o.engines {
		r := e.Result()
		res.PerIsland = append(res.PerIsland, r)
		if res.Best == nil || r.Best.Fitness < res.Best.Fitness {
			res.Best = r.Best.Clone()
			res.BestIsland = i
		}
	}
	return res
}

// PoolModels gathers every island's best and final population into one
// slice, fitness-sorted — the cross-run candidate pool the paper's
// reporting protocol ranks by test RMSE.
func (r *Result) PoolModels() []*gp.Individual {
	var pool []*gp.Individual
	for _, ir := range r.PerIsland {
		if ir.Best != nil {
			pool = append(pool, ir.Best)
		}
		pool = append(pool, ir.Final...)
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Fitness < pool[j].Fitness })
	return pool
}
