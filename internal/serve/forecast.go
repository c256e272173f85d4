package serve

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/ensemble"
	"gmr/internal/fnv"
	"gmr/internal/serve/api"
)

// ForecastRequest and ForecastResponse are the wire DTOs, defined once in
// the versioned api package (DESIGN.md §15) and aliased here so the
// executor, both HTTP surfaces, and the benchmark harness share one set
// of types. The /v1 adapter serves the ensemble-free subset byte-for-byte
// as before the api package existed.
type ForecastRequest = api.ForecastRequest

// ForecastResponse is the wire result; see api.ForecastResponse.
type ForecastResponse = api.ForecastResponse

// cohortKey identifies requests that may share one lane cohort: same
// compiled model (version included), same forcing window, same forcing
// overrides, same ensemble configuration (ensDigest is 0 for point
// forecasts; for ensemble requests it covers the member count and
// quantile set, so identical band requests coalesce into one cohort and
// are computed once). Everything else — the parameter vector — is
// per-lane.
type cohortKey struct {
	version   string
	station   string
	start     int
	days      int
	ovDigest  uint64
	ensDigest uint64
}

// execSpec is a resolved, executable forecast: the pinned model entry (so
// a hot reload mid-flight cannot swap the structure under us), the cohort
// key, the integration config, and the final parameter vector (or, for
// ensemble requests, the selected posterior members).
type execSpec struct {
	model     *Model
	key       cohortKey
	sim       bio.SimConfig
	params    []float64
	overrides map[string]float64
	ens       *ensSpec
}

// ensSpec is the resolved ensemble dimension of a spec: the posterior
// members to simulate (selected deterministically from the model's
// retained samples) and the sorted quantile set to reduce to.
type ensSpec struct {
	members   [][]float64
	quantiles []float64
}

// resolve validates a request against the dataset and the current catalog
// and builds its execSpec. The returned code ("bad_request",
// "unknown_model", ...) maps to an HTTP status in the handler.
func (s *Server) resolve(req *ForecastRequest) (*execSpec, string, error) {
	if req.Station == "" {
		req.Station = "S1"
	}
	if req.Station != "S1" {
		return nil, "unknown_station", fmt.Errorf("station %q is not served (routed forcing exists only for S1)", req.Station)
	}
	start := -1
	switch {
	case req.Start != nil && req.Date != "":
		return nil, "bad_request", fmt.Errorf("set either start or date, not both")
	case req.Start != nil:
		start = *req.Start
	case req.Date != "":
		for i, d := range s.ds.Dates {
			if d == req.Date {
				start = i
				break
			}
		}
		if start < 0 {
			return nil, "bad_request", fmt.Errorf("date %q is outside the dataset (%s…%s)", req.Date, s.ds.Dates[0], s.ds.Dates[len(s.ds.Dates)-1])
		}
	default:
		start = s.ds.TrainEnd // default: forecast from the first test day
	}
	if start < 0 || start >= s.ds.Days {
		return nil, "bad_request", fmt.Errorf("start %d outside dataset [0,%d)", start, s.ds.Days)
	}
	if req.Days <= 0 {
		return nil, "bad_request", fmt.Errorf("days must be positive")
	}
	if req.Days > s.ds.Days-start { // start+req.Days could overflow
		return nil, "bad_request", fmt.Errorf("window of %d days from day %d exceeds dataset length %d", req.Days, start, s.ds.Days)
	}
	for name, v := range req.Overrides {
		idx, ok := s.varIdx[name]
		if !ok || idx < len(bio.StateVars()) {
			return nil, "bad_request", fmt.Errorf("override %q is not a forcing variable", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "bad_request", fmt.Errorf("override %q is non-finite", name)
		}
	}
	for name, v := range req.Params {
		if _, ok := s.paramIdx[name]; !ok {
			return nil, "bad_request", fmt.Errorf("parameter %q is not a model constant", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "bad_request", fmt.Errorf("parameter %q is non-finite", name)
		}
	}

	model, why := s.reg.Lookup(req.Model)
	if model == nil {
		return nil, "unknown_model", fmt.Errorf("%s", why)
	}
	params := model.params
	if len(req.Params) > 0 {
		params = append([]float64(nil), model.params...)
		for name, v := range req.Params {
			params[s.paramIdx[name]] = v
		}
	}
	spec := &execSpec{
		model: model,
		key: cohortKey{
			version:  model.Version,
			station:  req.Station,
			start:    start,
			days:     req.Days,
			ovDigest: overridesDigest(req.Overrides),
		},
		sim:       dataset.ModelSimConfig(s.subSteps, s.ds.ObsPhy[start], s.ds.ObsZoo[start]),
		params:    params,
		overrides: req.Overrides,
	}
	if req.Ensemble != nil {
		if len(req.Params) > 0 {
			return nil, "bad_request", fmt.Errorf("ensemble forecasts do not accept parameter overrides (the lane dimension carries posterior members)")
		}
		ens, code, err := resolveEnsemble(model, req.Ensemble)
		if err != nil {
			return nil, code, err
		}
		spec.ens = ens
		spec.key.ensDigest = ensDigest(ens)
	}
	return spec, "", nil
}

// resolveEnsemble validates an ensemble spec against the pinned model and
// selects its members: an even stride over the model's retained posterior
// (sample i·P/M for i in [0,M)), so any two requests for M members of the
// same model get the identical, order-stable member set — the ensemble
// analogue of the response cache's purity contract.
func resolveEnsemble(model *Model, e *api.EnsembleSpec) (*ensSpec, string, error) {
	if e.Members < 1 {
		return nil, "bad_request", fmt.Errorf("ensemble members must be positive")
	}
	if e.Members > api.MaxEnsembleMembers {
		return nil, "bad_request", fmt.Errorf("ensemble members %d exceeds the cap %d", e.Members, api.MaxEnsembleMembers)
	}
	if len(model.posterior) == 0 {
		return nil, "bad_request", fmt.Errorf("model %s carries no posterior block (re-export with gmr -export-model -posterior N)", model.ID)
	}
	qs := e.Quantiles
	if len(qs) == 0 {
		qs = api.DefaultQuantiles()
	}
	if len(qs) > api.MaxQuantiles {
		return nil, "bad_request", fmt.Errorf("%d quantiles exceeds the cap %d", len(qs), api.MaxQuantiles)
	}
	qs = append([]float64(nil), qs...)
	sort.Float64s(qs)
	for i, q := range qs {
		if !(q > 0 && q < 1) {
			return nil, "bad_request", fmt.Errorf("quantile %v outside (0,1)", q)
		}
		if i > 0 && qs[i-1] == q {
			return nil, "bad_request", fmt.Errorf("duplicate quantile %v", q)
		}
	}
	m := e.Members
	if m > len(model.posterior) {
		m = len(model.posterior)
	}
	members := make([][]float64, m)
	for i := range members {
		members[i] = model.posterior[i*len(model.posterior)/m]
	}
	return &ensSpec{members: members, quantiles: qs}, "", nil
}

// ensDigest fingerprints a resolved ensemble configuration for cohort and
// response-cache keys. Never 0 (the point-forecast sentinel): the member
// count and quantile set are mixed over a tagged non-empty stream.
func ensDigest(ens *ensSpec) uint64 {
	h := fnv.New().Field("ens").Int(len(ens.members)).Int(len(ens.quantiles))
	for _, q := range ens.quantiles {
		h = h.F64(q)
	}
	if h == 0 {
		h = 1
	}
	return uint64(h)
}

// execResult is one member's outcome, delivered on its response channel.
type execResult struct {
	preds       []float64
	quarantined bool
	reason      string
	died        int
	ens         *ensOutcome // ensemble forecasts only
	err         error       // executor panic; member gets a 500
}

// ensOutcome is an ensemble cohort's shared result: the raw run (for
// fault reporting) and the reduction (nil when every member diverged).
// Requests in one ensemble cohort are identical by key construction, so
// all of them receive the same immutable outcome.
type ensOutcome struct {
	run *ensemble.RunResult
	red *ensemble.Reduction
}

// planFor resolves the exogenous plan of a cohort: the serving window's
// forcing rows, with any scenario overrides applied, opened over the
// model's segmented program.
//
// Plans are memoized per (model version, window, forcing overrides): the
// T×k matrix of forcing-only register values is opened once, filled by the
// first cohort kernel that reaches each block of days, and shared by every
// cohort over the same scenario window — the serving analogue of the
// evaluator's tier-1.5 cache. The plan cache is LRU-bounded; a reloaded
// model changes version, so its stale plans age out naturally. A plan holds
// its forcing rows until its last block is filled, so an entry for a
// scenario with overrides keeps its scaled copy of the window until some
// cohort has simulated the whole window (every cohort does). The plan is
// built under the cache lock, which keeps it race-free and single-build:
// opening a plan evaluates nothing (its rows are filled later by the
// kernels, outside this lock), so the only window pass left there is
// copying the rows of a scenario with overrides.
func (s *Server) planFor(spec *execSpec) *bio.ExogPlan {
	return s.plans.getOrBuild(spec.key, func() *bio.ExogPlan {
		rows := s.ds.Forcing[spec.key.start : spec.key.start+spec.key.days]
		if len(spec.overrides) > 0 {
			scaled := make([][]float64, len(rows))
			for i, row := range rows {
				r := append([]float64(nil), row...)
				for name, f := range spec.overrides {
					r[s.varIdx[name]] *= f
				}
				scaled[i] = r
			}
			rows = scaled
		}
		return spec.model.seg.NewExogPlan(rows)
	})
}

// execCohort runs one dispatched cohort through the lane kernel: the
// members' parameter vectors run as one ensemble over the cohort's shared
// plan (all members share the model, window, and plan by cohort-key
// construction; only parameter vectors differ per lane). Per-member
// results are bitwise identical to a single-lane run of the same request —
// lane arithmetic is elementwise and compaction never perturbs surviving
// lanes (DESIGN.md §11) — which is what makes the batch window invisible
// to clients beyond latency.
func (s *Server) execCohort(members []*pendingReq) {
	spec := members[0].spec
	if spec.ens != nil {
		s.execEnsembleCohort(members)
		return
	}
	params := make([][]float64, len(members))
	for i, m := range members {
		params[i] = m.spec.params
	}
	run := s.runLanes(spec, params)
	faults := run.Faults // member order, at most one per member
	for i, m := range members {
		res := execResult{preds: run.Preds[i]}
		if len(faults) > 0 && faults[0].Member == i {
			res.quarantined, res.reason, res.died = true, faults[0].Reason, faults[0].Day
			faults = faults[1:]
		}
		m.respond(res)
	}
}

// runLanes simulates a cohort's lane members over its plan through
// ensemble.Run on a pooled scratch, feeding every kernel launch and the
// cohort's lane compactions to the serving metrics.
func (s *Server) runLanes(spec *execSpec, members [][]float64) *ensemble.RunResult {
	plan := s.planFor(spec)
	sc := s.scratch.Get().(*bio.SimScratch)
	dropsBefore := sc.LaneDrops
	run := ensemble.Run(spec.model.seg, plan, spec.sim, members, spec.key.days, sc,
		func(n int, start time.Time, d time.Duration) {
			s.m.kernel.Observe(d.Seconds())
			s.tracer.Observe("serve.kernel", start, d)
			s.m.laneBatches.Inc()
			s.m.laneMembers.Add(int64(n))
		})
	s.m.laneCompactions.Add(int64(sc.LaneDrops - dropsBefore))
	s.scratch.Put(sc)
	return run
}

// execEnsembleCohort runs one ensemble cohort: the lane dimension carries
// posterior members instead of co-batched requests, ⌈M/laneWidth⌉ kernel
// launches over the cohort's shared plan, then one quantile reduction.
// Every request in the cohort is identical by key construction, so the
// ensemble is simulated once and the shared outcome answers all of them.
// When every member diverges, the outcome is a quarantined response
// carrying the first (lowest-member) fault's reason and day.
func (s *Server) execEnsembleCohort(members []*pendingReq) {
	spec := members[0].spec
	run := s.runLanes(spec, spec.ens.members)
	s.m.ensembleSize.Observe(float64(len(spec.ens.members)))
	s.m.memberQuarantines.Add(int64(len(run.Faults)))

	t0 := time.Now()
	red, err := ensemble.Reduce(run, spec.key.days, spec.ens.quantiles)
	d := time.Since(t0)
	s.m.band.Observe(d.Seconds())
	s.tracer.Observe("serve.band", t0, d)

	res := execResult{ens: &ensOutcome{run: run, red: red}}
	if err != nil {
		f := run.Faults[0]
		res.quarantined, res.reason, res.died = true, f.Reason, f.Day
	}
	for _, m := range members {
		m.respond(res)
	}
}
