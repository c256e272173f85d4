package orchestrator

import (
	"strconv"

	"gmr/internal/obs"
)

// Observability wiring (DESIGN.md §13). When Config.Obs is set the
// orchestrator registers per-island scrape-time series on it at New time:
// the engine's barrier-consistent progress mirror (generation, best-ever
// fitness, cumulative evaluations) and — for evalx-backed islands — the
// evaluator's full counter family. All series carry an "island" label, so
// one registry exposes every island side by side and a scrape never races
// the stepping goroutines (gp.Engine.Progress reads atomics written only
// at generation barriers).
//
// The JSONL stream gains a per-generation "obs" record carrying the
// registry snapshot — but only when Obs is attached. Byte-identical
// telemetry across repeat runs (the chaos-test contract) is preserved for
// every existing configuration because absent Obs the stream is unchanged.
func (o *Orchestrator) registerObs() {
	r := o.cfg.Obs
	if r == nil {
		return
	}
	for i, eng := range o.engines {
		ls := obs.Labels{"island": strconv.Itoa(i)}
		eng.RegisterObs(r, ls)
		if ev, ok := o.evals[i].(interface {
			RegisterObs(*obs.Registry, string, obs.Labels)
		}); ok {
			ev.RegisterObs(r, "gmr_evalx", ls)
		}
	}
}

// obsRecord is the registry snapshot embedded in the telemetry stream once
// per generation when Config.Obs is attached. Snapshot returns a
// map[string]float64 and encoding/json sorts map keys, so the record layout
// is stable; values that track wall-clock (histogram sums) are naturally
// run-dependent, which is why the record exists only behind the opt-in.
type obsRecord struct {
	Type    string             `json:"type"`
	Gen     int                `json:"gen"`
	Metrics map[string]float64 `json:"metrics"`
}

func (o *Orchestrator) emitObsRecord() {
	if o.cfg.Obs == nil {
		return
	}
	o.tele.emit(obsRecord{Type: "obs", Gen: o.gen, Metrics: o.cfg.Obs.Snapshot()})
}
