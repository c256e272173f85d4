package serve

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gmr/internal/bio"
	"gmr/internal/evalx"
	"gmr/internal/fnv"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/orchestrator"
	"gmr/internal/tag"
)

// Reason codes for rejected models, surfaced verbatim in /v1/models so an
// operator can tell a bad file from an incompatible one at a glance.
const (
	RejectDecodeError     = "decode_error"           // unreadable or malformed file
	RejectGrammarMismatch = "grammar_hash_mismatch"  // bundle encoded against a different grammar
	RejectConfigMismatch  = "config_digest_mismatch" // trained under an incompatible eval config
	RejectBadParams       = "bad_params"             // parameter vector length or non-finite values
	RejectBadStructure    = "bad_structure"          // derivation failed to derive/bind/compile
	RejectQuarantined     = "quarantined"            // validation evaluation produced a non-finite fitness
)

// ModelStatus is the lifecycle state of a registry entry.
type ModelStatus string

const (
	StatusReady    ModelStatus = "ready"
	StatusRejected ModelStatus = "rejected"
)

// Model is one registry entry: a loaded, compiled, validated (or rejected)
// forecasting model. A Model is immutable after load — hot reload swaps
// whole catalogs, never mutates entries — so in-flight requests can keep
// using an entry while a new catalog is being installed.
type Model struct {
	// ID is the request-facing model name: the file's base name without
	// extension.
	ID string
	// File is the file the model was loaded from (base name).
	File string
	// Version fingerprints the file content; it changes whenever the
	// file changes, and keys the response and plan caches.
	Version string
	// Source is "bundle" (gp.ModelBundle) or "checkpoint" (orchestrator
	// checkpoint; best individual across islands).
	Source string
	// Status and Reason describe load outcome; Reason is one of the
	// Reject* codes when Status is StatusRejected.
	Status ModelStatus
	Reason string
	// Detail elaborates Reason for operators (error text, digest pair).
	Detail string

	// Bundle metadata (zero for checkpoints).
	Name      string
	SavedAt   time.Time
	TrainRMSE float64 // producer-side, informational
	TestRMSE  float64

	// ServingRMSE is the model's fitness re-measured on the serving
	// dataset's training window during validation (the registry never
	// trusts producer-side numbers).
	ServingRMSE float64
	// PhyExpr and BZooExpr are the simplified derivative expressions.
	PhyExpr, ZooExpr string

	ind    *gp.Individual
	seg    *bio.SegSystem
	params []float64
	// posterior is the bundle's retained parameter-posterior sample set
	// (digest-verified at decode, dimension-checked at load); empty means
	// the model serves point forecasts only. posteriorDigest is the
	// bundle block's fingerprint, echoed in ensemble responses.
	posterior       [][]float64
	posteriorDigest string
}

// Ready reports whether the model can serve forecasts.
func (m *Model) Ready() bool { return m.Status == StatusReady }

// PosteriorSize is the model's retained posterior sample count (0 = point
// forecasts only).
func (m *Model) PosteriorSize() int { return len(m.posterior) }

// catalog is one immutable generation of the registry: the loaded models
// and the champion pick. Hot reload builds a fresh catalog and swaps the
// pointer; readers never see a half-built state.
type catalog struct {
	version  int
	loadedAt time.Time
	models   map[string]*Model
	order    []string // sorted IDs, for stable listings
	champion string   // ready model with the best serving RMSE ("" if none)
}

// Registry loads model bundles and orchestrator checkpoints from a
// directory, compiles each exactly once, validates them against the
// serving dataset, and exposes the result as an atomically swappable
// catalog.
type Registry struct {
	dir          string
	g            *tag.Grammar
	grammarHash  string
	consts       []bio.Constant
	configDigest string
	eval         *evalx.Evaluator

	cur      atomic.Pointer[catalog]
	reloadMu sync.Mutex // serializes Reload; readers never block
	reloads  atomic.Int64
}

// NewRegistry builds a registry for the serving dataset and performs the
// initial load. trainForcing/trainObs are the serving dataset's training
// window (the validation workload); sim is the shared integration regime.
func NewRegistry(dir string, consts []bio.Constant, trainForcing [][]float64, trainObs []float64, sim bio.SimConfig) (*Registry, error) {
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		return nil, fmt.Errorf("serve: registry: %v", err)
	}
	r := &Registry{
		dir:          dir,
		g:            g,
		grammarHash:  gp.GrammarHash(g),
		consts:       consts,
		configDigest: ConfigDigest(consts, sim),
		// The validation evaluator reuses the tier-1 evalx path: derive →
		// simplify → compile once per structure, exogenous plan hoisted
		// once per (structure, dataset). Short-circuiting stays OFF so
		// every model's validation fitness is its true serving RMSE, not
		// a surrogate truncated against an earlier model.
		eval: evalx.New(trainForcing, trainObs, consts, evalx.Options{
			UseCache:   true,
			UseCompile: true,
			Sim:        sim,
		}),
	}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Catalog returns the current immutable catalog.
func (r *Registry) Catalog() *catalog { return r.cur.Load() }

// Reloads returns how many catalog loads have completed (≥1 after New).
func (r *Registry) Reloads() int { return int(r.reloads.Load()) }

// Models returns the current catalog's entries in listing order.
func (r *Registry) Models() []*Model {
	c := r.Catalog()
	out := make([]*Model, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.models[id])
	}
	return out
}

// Lookup resolves a request's model name against the current catalog:
// empty means the champion. The second return is a Reject*/lookup reason
// when no servable model matches.
func (r *Registry) Lookup(name string) (*Model, string) {
	c := r.Catalog()
	if name == "" {
		if c.champion == "" {
			return nil, "no ready model"
		}
		return c.models[c.champion], ""
	}
	m, ok := c.models[name]
	if !ok {
		return nil, "unknown model"
	}
	if !m.Ready() {
		return nil, fmt.Sprintf("model rejected: %s", m.Reason)
	}
	return m, ""
}

// Reload rescans the directory and atomically installs a fresh catalog.
// Unchanged files (same content hash) reuse the previous catalog's entry
// — no recompilation, and in-flight requests pinned to the old *Model
// keep working because entries are immutable. Concurrent Reload calls
// serialize; readers are never blocked.
func (r *Registry) Reload() error {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()

	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("serve: registry: %v", err)
	}
	prev := r.cur.Load()
	next := &catalog{
		loadedAt: time.Now().UTC(),
		models:   map[string]*Model{},
	}
	if prev != nil {
		next.version = prev.version + 1
	} else {
		next.version = 1
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		ext := strings.ToLower(filepath.Ext(name))
		if ext != ".json" && ext != ".ckpt" {
			continue
		}
		id := strings.TrimSuffix(name, filepath.Ext(name))
		if _, dup := next.models[id]; dup {
			continue // first file wins on ID collisions across extensions
		}
		path := filepath.Join(r.dir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			next.models[id] = &Model{
				ID: id, File: name, Status: StatusRejected,
				Reason: RejectDecodeError, Detail: err.Error(),
			}
			continue
		}
		version := fnv.New().Field(name).U64(uint64(len(blob))).Bytes(blob)
		if prev != nil {
			if old, ok := prev.models[id]; ok && old.Version == version.Hex() {
				next.models[id] = old
				continue
			}
		}
		next.models[id] = r.load(id, name, path, version.Hex(), blob)
	}
	ids := make([]string, 0, len(next.models))
	for id := range next.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	next.order = ids
	// Champion: the ready model with the lowest serving RMSE, ties broken
	// by ID so the pick is deterministic across reloads.
	bestRMSE := math.Inf(1)
	for _, id := range ids {
		m := next.models[id]
		if m.Ready() && m.ServingRMSE < bestRMSE {
			bestRMSE = m.ServingRMSE
			next.champion = id
		}
	}
	r.cur.Store(next)
	r.reloads.Add(1)
	return nil
}

// load decodes, resolves, compiles, and validates one model file.
func (r *Registry) load(id, file, path, version string, blob []byte) *Model {
	m := &Model{ID: id, File: file, Version: version}
	ind, err := r.decode(m, path, blob)
	if err != nil {
		if m.Reason == "" {
			m.Reason = RejectDecodeError
		}
		m.Status = StatusRejected
		m.Detail = err.Error()
		return m
	}
	if len(ind.Params) != len(r.consts) {
		m.Status = StatusRejected
		m.Reason = RejectBadParams
		m.Detail = fmt.Sprintf("parameter vector has %d entries, serving constants have %d", len(ind.Params), len(r.consts))
		return m
	}
	for i, p := range ind.Params {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			m.Status = StatusRejected
			m.Reason = RejectBadParams
			m.Detail = fmt.Sprintf("parameter %d (%s) is non-finite", i, r.consts[i].Name)
			return m
		}
	}
	// Posterior samples are parameter vectors too: the same layout and
	// finiteness contract as the model's own vector, enforced before any
	// sample can reach a lane.
	for si, sample := range m.posterior {
		if len(sample) != len(r.consts) {
			m.Status = StatusRejected
			m.Reason = RejectBadParams
			m.Detail = fmt.Sprintf("posterior sample %d has %d entries, serving constants have %d", si, len(sample), len(r.consts))
			return m
		}
		for i, p := range sample {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				m.Status = StatusRejected
				m.Reason = RejectBadParams
				m.Detail = fmt.Sprintf("posterior sample %d parameter %d (%s) is non-finite", si, i, r.consts[i].Name)
				return m
			}
		}
	}

	// Compile once (evalx.Compile), ending in the lane-capable SegSystem
	// the batching executor dispatches through. The listing shows the
	// expressions even when binding or compiling them fails.
	cm, err := evalx.Compile(ind, r.consts)
	if cm != nil {
		m.PhyExpr, m.ZooExpr = cm.Phy.Pretty(), cm.Zoo.Pretty()
	}
	if err != nil {
		m.Status = StatusRejected
		m.Reason = RejectBadStructure
		m.Detail = err.Error()
		return m
	}

	// Validate: one full evaluation over the serving training window
	// through the shared evalx evaluator. A non-finite fitness means the
	// model diverges on this dataset — serving it would return quarantined
	// garbage for every window, so reject up front.
	r.eval.BeginBatch()
	r.eval.Evaluate(ind)
	r.eval.EndBatch()
	if math.IsNaN(ind.Fitness) || math.IsInf(ind.Fitness, 0) {
		m.Status = StatusRejected
		m.Reason = RejectQuarantined
		m.Detail = "validation evaluation on the serving training window was quarantined"
		return m
	}
	m.ServingRMSE = ind.Fitness
	m.ind = ind
	m.seg = cm.SegSystem
	m.params = append([]float64(nil), ind.Params...)
	m.Status = StatusReady
	return m
}

// decode turns file bytes into an individual, routing by content: model
// bundles carry compatibility fingerprints that are enforced here;
// orchestrator checkpoints (no serving fingerprints) contribute their best
// individual across islands and rely on compile + validation alone.
func (r *Registry) decode(m *Model, path string, blob []byte) (*gp.Individual, error) {
	b, bundleErr := gp.ReadBundle(strings.NewReader(string(blob)))
	if bundleErr == nil {
		m.Source = "bundle"
		m.Name = b.Name
		m.SavedAt = b.SavedAt
		m.TrainRMSE = b.TrainRMSE
		m.TestRMSE = b.TestRMSE
		if b.GrammarHash != r.grammarHash {
			m.Reason = RejectGrammarMismatch
			return nil, fmt.Errorf("bundle grammar hash %s, serving grammar %s", b.GrammarHash, r.grammarHash)
		}
		if b.ConfigDigest != r.configDigest {
			m.Reason = RejectConfigMismatch
			return nil, fmt.Errorf("bundle config digest %s, serving config %s", b.ConfigDigest, r.configDigest)
		}
		// ReadBundle already verified the posterior block's version and
		// digest; a tampered block never gets here (decode_error).
		if b.Posterior != nil {
			m.posterior = b.Posterior.Samples
			m.posteriorDigest = b.Posterior.Digest
		}
		return b.Resolve(r.g)
	}
	ck, err := orchestrator.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("neither a model bundle (%v) nor a checkpoint (%v)", bundleErr, err)
	}
	m.Source = "checkpoint"
	m.SavedAt = ck.SavedAt
	var best *gp.SavedIndividual
	bestFit := math.Inf(1)
	for _, snap := range ck.Islands {
		if snap == nil || snap.Best == nil {
			continue
		}
		if f := math.Float64frombits(snap.Best.FitnessBits); best == nil || f < bestFit {
			best, bestFit = snap.Best, f
		}
	}
	if best == nil {
		return nil, fmt.Errorf("checkpoint has no best individual")
	}
	return best.Resolve(r.g)
}
