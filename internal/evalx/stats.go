package evalx

import (
	"sync/atomic"

	"gmr/internal/obs"
)

// Stats counts evaluator work for the Fig 10/11 analyses and the cache
// telemetry of the two-tier evaluation cache. It is also the JSON record
// the orchestrator's JSONL stream carries and testdata/golden/evalx.golden
// pins; the end-to-end benchmark (bench/) reads its hit ratios. Tier-1
// misses are evaluations that had to run the derive→simplify pipeline;
// tier-2 misses are evaluations whose fitness was not served from the
// (structure, params) cache (including all evaluations when caching is
// disabled). The misses and hit rates are derived from the counters by
// Evaluator.Stats and Add; every other field is one row of counterTable.
type Stats struct {
	Evaluations   int     `json:"evaluations"`    // Evaluate calls
	FullEvals     int     `json:"full_evals"`     // evaluations that ran every fitness case
	ShortCircuits int     `json:"short_circuits"` // evaluations stopped early
	Tier1Hits     int     `json:"tier1_hits"`     // compiled structure served from cache
	Tier1Misses   int     `json:"tier1_misses"`   // derived: Evaluations − Tier1Hits, ≥ 0
	CacheHits     int     `json:"tier2_hits"`     // (structure, params) fitness served from cache
	Tier2Misses   int     `json:"tier2_misses"`   // derived: Evaluations − CacheHits, ≥ 0
	Tier1HitRate  float64 `json:"tier1_hit_rate"` // derived: Tier1Hits / Evaluations
	Tier2HitRate  float64 `json:"tier2_hit_rate"` // derived: CacheHits / Evaluations

	Derives        int `json:"derives"`         // derive→simplify pipeline executions
	Compiles       int `json:"compiles"`        // structure builds (bind + compile)
	StepsEvaluated int `json:"steps_evaluated"` // total fitness cases actually simulated
	StepsPossible  int `json:"steps_possible"`  // fitness cases that full evaluation would cost

	// Tier-1.5 exogenous-plan cache and batch-evaluation counters
	// (DESIGN.md §10): plans are hoisted T×k forcing matrices, one per
	// structure, filled on demand; hits are segmented simulations that
	// reused one.
	ExogPlanBuilds int `json:"exog_plan_builds"` // exogenous plans opened (first simulation of a structure), not rows filled
	ExogPlanHits   int `json:"exog_plan_hits"`   // segmented simulations served by an existing plan
	RegsHoisted    int `json:"regs_hoisted"`     // exogenous registers hoisted across all plan builds (Σ k)
	BatchCalls     int `json:"batch_calls"`      // EvaluateParamBatch invocations
	BatchMembers   int `json:"batch_members"`    // parameter vectors evaluated through the batch API

	// Lane-batched kernel counters (DESIGN.md §11): one lane batch is one
	// KernelLanes launch scoring up to expr.Lanes members per instruction
	// dispatch. LanesFilled/LaneBatches is the average fill;
	// LaneShortCircuits is the subset of ShortCircuits decided on the lane
	// path.
	LaneBatches       int `json:"lane_batches"`        // KernelLanes launches
	LanesFilled       int `json:"lanes_filled"`        // members carried by those launches
	LaneShortCircuits int `json:"lane_short_circuits"` // short circuits decided on the lane path
	LaneCompactions   int `json:"lane_compactions"`    // lanes compacted away mid-launch (aborts + early stops)

	// Structure-clustered population-scheduler counters (DESIGN.md §14):
	// clusters are same-structure groups the GP generation loop dispatched
	// through EvaluateCluster; scalar fallbacks are singleton clusters
	// (unique structures, failed derivations, or the -nocluster ablation).
	// PopLaneBatches/PopLanesFilled are the subset of LaneBatches/
	// LanesFilled launched from the population path, and the histogram
	// buckets cluster sizes at powers of two (1, 2, ≤4, ≤8, ..., >64).
	PopClusters        int                 `json:"pop_clusters"`
	PopScalarFallbacks int                 `json:"pop_scalar_fallbacks"`
	PopLaneBatches     int                 `json:"pop_lane_batches"`
	PopLanesFilled     int                 `json:"pop_lanes_filled"`
	PopClusterSizeHist [PopHistBuckets]int `json:"pop_cluster_size_hist"`

	// Quarantine counters, by reason code (simulations aborted with +Inf
	// fitness rather than a measured RMSE). Omitted from JSON when zero, so
	// fault-free streams keep their byte format.
	QuarNaN          int `json:"quar_nan,omitempty"`           // state became NaN mid-simulation
	QuarInf          int `json:"quar_inf,omitempty"`           // state overflowed to ±Inf mid-simulation
	QuarDeadline     int `json:"quar_deadline,omitempty"`      // evaluation exceeded the per-evaluation deadline
	QuarBadStructure int `json:"quar_bad_structure,omitempty"` // derivation failed to derive/bind/compile
}

// PopHistBuckets is the number of power-of-two buckets of the cluster-size
// histogram: sizes 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, and >64.
const PopHistBuckets = 8

// Quarantined returns the total number of quarantined evaluations.
func (s Stats) Quarantined() int {
	return s.QuarNaN + s.QuarInf + s.QuarDeadline + s.QuarBadStructure
}

// Add accumulates another stats snapshot (e.g. across per-run evaluators)
// and re-derives the misses and hit rates of the sum.
func (s *Stats) Add(o Stats) {
	for _, row := range counterTable {
		*row.field(s) += *row.field(&o)
	}
	s.derive()
}

// derive fills in the fields computed from the counters. The counters are
// read one by one, so a snapshot taken mid-batch can see more hits than
// evaluations; the misses are clamped at zero.
func (s *Stats) derive() {
	s.Tier1Misses = max(s.Evaluations-s.Tier1Hits, 0)
	s.Tier2Misses = max(s.Evaluations-s.CacheHits, 0)
	s.Tier1HitRate, s.Tier2HitRate = 0, 0
	if s.Evaluations > 0 {
		s.Tier1HitRate = float64(s.Tier1Hits) / float64(s.Evaluations)
		s.Tier2HitRate = float64(s.CacheHits) / float64(s.Evaluations)
	}
}

// counter indexes the evaluator's atomic work counters and counterTable.
// Adding a counter takes its Stats field, a constant here and a row there.
type counter uint8

const (
	cEvaluations counter = iota
	cFullEvals
	cShortCircuits
	cTier1Hits
	cCacheHits
	cDerives
	cCompiles
	cStepsEvaluated
	cStepsPossible
	cExogPlanBuilds
	cExogPlanHits
	cRegsHoisted
	cBatchCalls
	cBatchMembers
	cLaneBatches
	cLanesFilled
	cLaneShortCircuits
	cLaneCompactions
	cPopClusters
	cPopScalarFallbacks
	cPopLaneBatches
	cPopLanesFilled
	cQuarNaN // quarantine counters, in Reason order from ReasonNaN
	cQuarInf
	cQuarDeadline
	cQuarBadStructure
	cPopClusterSize // first of PopHistBuckets cluster-size histogram counters

	numCounters = cPopClusterSize + PopHistBuckets
)

// counterRow describes one counter: its telemetry name (the JSON key of its
// Stats field and the exposition's counter label), the histogram bucket
// bound for the cluster-size rows, and its Stats field.
type counterRow struct {
	name  string
	le    string
	field func(*Stats) *int
}

// counterTable is the single description of every evaluator counter.
var counterTable = func() [numCounters]counterRow {
	t := [numCounters]counterRow{
		cEvaluations:        {name: "evaluations", field: func(s *Stats) *int { return &s.Evaluations }},
		cFullEvals:          {name: "full_evals", field: func(s *Stats) *int { return &s.FullEvals }},
		cShortCircuits:      {name: "short_circuits", field: func(s *Stats) *int { return &s.ShortCircuits }},
		cTier1Hits:          {name: "tier1_hits", field: func(s *Stats) *int { return &s.Tier1Hits }},
		cCacheHits:          {name: "tier2_hits", field: func(s *Stats) *int { return &s.CacheHits }},
		cDerives:            {name: "derives", field: func(s *Stats) *int { return &s.Derives }},
		cCompiles:           {name: "compiles", field: func(s *Stats) *int { return &s.Compiles }},
		cStepsEvaluated:     {name: "steps_evaluated", field: func(s *Stats) *int { return &s.StepsEvaluated }},
		cStepsPossible:      {name: "steps_possible", field: func(s *Stats) *int { return &s.StepsPossible }},
		cExogPlanBuilds:     {name: "exog_plan_builds", field: func(s *Stats) *int { return &s.ExogPlanBuilds }},
		cExogPlanHits:       {name: "exog_plan_hits", field: func(s *Stats) *int { return &s.ExogPlanHits }},
		cRegsHoisted:        {name: "regs_hoisted", field: func(s *Stats) *int { return &s.RegsHoisted }},
		cBatchCalls:         {name: "batch_calls", field: func(s *Stats) *int { return &s.BatchCalls }},
		cBatchMembers:       {name: "batch_members", field: func(s *Stats) *int { return &s.BatchMembers }},
		cLaneBatches:        {name: "lane_batches", field: func(s *Stats) *int { return &s.LaneBatches }},
		cLanesFilled:        {name: "lanes_filled", field: func(s *Stats) *int { return &s.LanesFilled }},
		cLaneShortCircuits:  {name: "lane_short_circuits", field: func(s *Stats) *int { return &s.LaneShortCircuits }},
		cLaneCompactions:    {name: "lane_compactions", field: func(s *Stats) *int { return &s.LaneCompactions }},
		cPopClusters:        {name: "pop_clusters", field: func(s *Stats) *int { return &s.PopClusters }},
		cPopScalarFallbacks: {name: "pop_scalar_fallbacks", field: func(s *Stats) *int { return &s.PopScalarFallbacks }},
		cPopLaneBatches:     {name: "pop_lane_batches", field: func(s *Stats) *int { return &s.PopLaneBatches }},
		cPopLanesFilled:     {name: "pop_lanes_filled", field: func(s *Stats) *int { return &s.PopLanesFilled }},
		cQuarNaN:            {name: "quar_nan", field: func(s *Stats) *int { return &s.QuarNaN }},
		cQuarInf:            {name: "quar_inf", field: func(s *Stats) *int { return &s.QuarInf }},
		cQuarDeadline:       {name: "quar_deadline", field: func(s *Stats) *int { return &s.QuarDeadline }},
		cQuarBadStructure:   {name: "quar_bad_structure", field: func(s *Stats) *int { return &s.QuarBadStructure }},
	}
	// One row per cluster-size bucket, labeled by the bucket's inclusive
	// upper bound (Prometheus-style `le`).
	for i, le := range [PopHistBuckets]string{"1", "2", "4", "8", "16", "32", "64", "+Inf"} {
		t[cPopClusterSize+counter(i)] = counterRow{"pop_cluster_size", le,
			func(s *Stats) *int { return &s.PopClusterSizeHist[i] }}
	}
	return t
}()

// missRows are the derived per-tier miss counts the exposition publishes
// next to the counters: evaluations that were not a hit of the tier.
var missRows = [...]struct {
	name string
	hits counter
}{{"tier1_misses", cTier1Hits}, {"tier2_misses", cCacheHits}}

// counters is the lock-free internal form of Stats: one atomic per
// counterTable row, so concurrent Evaluate calls never contend on a stats
// mutex.
type counters [numCounters]atomic.Int64

// snapshot reads the counters (one by one, so a snapshot taken mid-batch
// is a near-instant rather than perfectly instantaneous cut).
func (c *counters) snapshot() Stats {
	var s Stats
	for i, row := range counterTable {
		*row.field(&s) = int(c[i].Load())
	}
	s.derive()
	return s
}

// quarantineCount counts one quarantined evaluation under reason r
// (ReasonOK is ignored).
func (c *counters) quarantineCount(r Reason) {
	if r != ReasonOK {
		c[cQuarNaN+counter(r-ReasonNaN)].Add(1)
	}
}

// RegisterObs publishes the evaluator's counters on an obs registry as one
// scrape-time family: family{counter="...", extra labels...}, one series
// per counterTable row plus the derived tier misses. Each callback loads
// only the atomics its series needs, so the exposition always shows the
// live values without a copy step.
//
// Registration is idempotent by the registry's get-or-create contract:
// when an evaluator is replaced (serve hot reload, a new training run)
// re-registering the new evaluator over the same (family, labels)
// replaces the callbacks in place. The registry stays the single owner
// of the series and the exposition can never double-report a counter —
// the historical failure mode of snapshot-copying exporters.
func (e *Evaluator) RegisterObs(r *obs.Registry, family string, labels obs.Labels) {
	if r == nil {
		return
	}
	const help = "Evaluation-pipeline snapshot counters (DESIGN.md §9–11)."
	series := func(name, le string, fn func() float64) {
		ls := obs.Labels{"counter": name}
		if le != "" {
			ls["le"] = le
		}
		for k, v := range labels {
			ls[k] = v
		}
		r.CounterFunc(family, help, ls, fn)
	}
	for i, row := range counterTable {
		c := &e.ctr[i]
		series(row.name, row.le, func() float64 { return float64(c.Load()) })
	}
	for _, m := range missRows {
		evals, hits := &e.ctr[cEvaluations], &e.ctr[m.hits]
		series(m.name, "", func() float64 { return float64(max(evals.Load()-hits.Load(), 0)) })
	}
}
