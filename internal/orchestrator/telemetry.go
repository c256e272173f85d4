package orchestrator

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"

	"gmr/internal/evalx"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
)

// The telemetry stream is JSON Lines: one self-describing record per line,
// distinguished by the "type" field. Records of type "gen" and "migration"
// are deterministic (no wall-clock fields), so two runs of the same Config
// produce byte-identical streams — the property the checkpoint/resume
// determinism test asserts. Two exceptions: "run_start", "checkpoint", and
// "run_end" may carry timestamps and paths, and the optional "cache" field
// of "gen" records reports the live evaluator's per-process counters, which
// restart from zero on resume (observability, not run state).
//
//	{"type":"run_start","islands":4,"generations":60,...}
//	{"type":"gen","island":0,"gen":12,"best_fitness":0.41,...,"cache":{...}}
//	{"type":"migration","gen":15,"from":0,"to":1,"count":2,...}
//	{"type":"checkpoint","gen":20,"path":"run.ckpt"}
//	{"type":"run_end","generations":60,"best_island":2,...}

// jsonFloat marshals non-finite values as null (plain JSON numbers cannot
// represent ±Inf/NaN; a fresh island's best fitness is +Inf until a finite
// model appears).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

type runStartRecord struct {
	Type           string `json:"type"`
	Time           string `json:"time,omitempty"`
	Islands        int    `json:"islands"`
	Generations    int    `json:"generations"`
	MigrationEvery int    `json:"migration_every"`
	Migrants       int    `json:"migrants"`
	Seed           int64  `json:"seed"`
	StartGen       int    `json:"start_gen"`
	Resumed        bool   `json:"resumed"`
}

type genRecord struct {
	Type        string    `json:"type"`
	Island      int       `json:"island"`
	Gen         int       `json:"gen"`
	BestFitness jsonFloat `json:"best_fitness"`
	MeanFitness jsonFloat `json:"mean_fitness"`
	BestSize    int       `json:"best_size"`
	Evaluations int       `json:"evaluations"`
	// Quarantines is the engine's cumulative count of evaluations
	// recovered from a panic (omitted when zero, keeping fault-free
	// streams byte-identical to the previous format). Like the cache
	// counters, it is per-process observability and restarts from zero
	// on resume.
	Quarantines int64        `json:"quarantines,omitempty"`
	Cache       *evalx.Stats `json:"cache,omitempty"`
}

type migrationRecord struct {
	Type        string    `json:"type"`
	Gen         int       `json:"gen"`
	From        int       `json:"from"`
	To          int       `json:"to"`
	Count       int       `json:"count"`
	MigrantBest jsonFloat `json:"migrant_best"`
}

type checkpointRecord struct {
	Type string `json:"type"`
	Gen  int    `json:"gen"`
	Path string `json:"path"`
}

type runEndRecord struct {
	Type        string    `json:"type"`
	Generations int       `json:"generations"`
	BestIsland  int       `json:"best_island"`
	BestFitness jsonFloat `json:"best_fitness"`
	Migrations  int       `json:"migrations"`
	Interrupted bool      `json:"interrupted"`
	// Quarantines totals panic-recovered evaluations across all islands.
	Quarantines int64 `json:"quarantines,omitempty"`
	// Faults is the fault injector's final injection tally, present only
	// when injection was enabled for the run.
	Faults *faultinject.Snapshot `json:"faults,omitempty"`
}

// checkpointFallbackRecord reports that Resume recovered from a corrupted
// primary checkpoint by falling back to the last-good backup.
type checkpointFallbackRecord struct {
	Type   string `json:"type"`
	Path   string `json:"path"`
	Backup string `json:"backup"`
	Gen    int    `json:"gen"`
	Error  string `json:"error"`
}

// telemetry serializes records onto one writer. A nil writer disables the
// stream (every emit becomes a no-op).
type telemetry struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newTelemetry(w io.Writer) *telemetry {
	t := &telemetry{}
	if w != nil {
		t.enc = json.NewEncoder(w) // Encode appends '\n': JSONL for free
	}
	return t
}

func (t *telemetry) emit(v any) {
	if t.enc == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Telemetry is advisory: an encoding error (closed pipe, full disk)
	// must not abort the run that the stream merely observes.
	_ = t.enc.Encode(v)
}

func (t *telemetry) runStart(cfg Config, startGen int, resumed bool) {
	t.emit(runStartRecord{
		Type:           "run_start",
		Time:           time.Now().UTC().Format(time.RFC3339),
		Islands:        cfg.Islands,
		Generations:    cfg.GP.MaxGen,
		MigrationEvery: cfg.MigrationEvery,
		Migrants:       cfg.Migrants,
		Seed:           cfg.GP.Seed,
		StartGen:       startGen,
		Resumed:        resumed,
	})
}

func (t *telemetry) generation(island int, s gp.GenStats, quarantines int64, cache *evalx.Stats) {
	t.emit(genRecord{
		Type:        "gen",
		Island:      island,
		Gen:         s.Gen,
		BestFitness: jsonFloat(s.BestFitness),
		MeanFitness: jsonFloat(s.MeanFitness),
		BestSize:    s.BestSize,
		Evaluations: s.Evaluations,
		Quarantines: quarantines,
		Cache:       cache,
	})
}

func (t *telemetry) migration(gen, from, to, count int, migrantBest float64) {
	t.emit(migrationRecord{
		Type:        "migration",
		Gen:         gen,
		From:        from,
		To:          to,
		Count:       count,
		MigrantBest: jsonFloat(migrantBest),
	})
}

func (t *telemetry) checkpointWritten(gen int, path string) {
	t.emit(checkpointRecord{Type: "checkpoint", Gen: gen, Path: path})
}

func (t *telemetry) runEnd(res *Result, quarantines int64, faults *faultinject.Snapshot) {
	rec := runEndRecord{
		Type:        "run_end",
		Generations: res.Generations,
		BestIsland:  res.BestIsland,
		Migrations:  res.Migrations,
		Interrupted: res.Interrupted,
		Quarantines: quarantines,
		Faults:      faults,
	}
	if res.Best != nil {
		rec.BestFitness = jsonFloat(res.Best.Fitness)
	}
	t.emit(rec)
}

func (t *telemetry) checkpointFallback(path, backup string, gen int, errMsg string) {
	t.emit(checkpointFallbackRecord{
		Type:   "checkpoint_fallback",
		Path:   path,
		Backup: backup,
		Gen:    gen,
		Error:  errMsg,
	})
}
