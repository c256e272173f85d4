package main

import (
	"math"
	"testing"
	"time"

	"gmr/internal/obs"
)

var t0 = time.Unix(1_000_000, 0)

// span builds a synthetic span over [from, to) milliseconds.
func span(name string, from, to int64) obs.SpanRecord {
	return obs.SpanRecord{Name: name, Start: t0.Add(time.Duration(from) * time.Millisecond),
		Dur: time.Duration(to-from) * time.Millisecond}
}

// checkAttribution asserts the invariants every attribution must keep and
// the expected shares and busy times (in milliseconds).
func checkAttribution(t *testing.T, a attribution, procs int, share, busyMs map[string]float64) {
	t.Helper()
	sum := 0.0
	for l, s := range a.Share {
		sum += s
		if math.Abs(s-share[l]) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", l, s, share[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for l, b := range a.Busy {
		if b < 0 || b > a.Covered*float64(procs) {
			t.Errorf("busy[%s] = %vs outside [0, %vs × %d procs]", l, b, a.Covered, procs)
		}
		if math.Abs(b*1e3-busyMs[l]) > 1e-6 {
			t.Errorf("busy[%s] = %vms, want %vms", l, b*1e3, busyMs[l])
		}
	}
}

func TestAttributeParallelChildren(t *testing.T) {
	// Two evaluation workers run side by side inside one gp.evaluate.
	a := attribute([]obs.SpanRecord{
		span("bench.job", 0, 10),
		span("gp.evaluate", 1, 9),
		span("evalx.simulate", 2, 6),
		span("evalx.lane_batch", 3, 8),
	})
	if a.Covered != 0.010 {
		t.Fatalf("covered %vs, want 0.010s", a.Covered)
	}
	checkAttribution(t, a, 2,
		map[string]float64{"core": 0.2, "gp": 0.2, "evalx": 0.6},
		map[string]float64{"core": 2, "gp": 2, "evalx": 9})
}

func TestAttributeIslandsInDifferentLayers(t *testing.T) {
	// Island A varies its population (gp) while island B's worker
	// simulates (evalx): the instant belongs to the deeper layer.
	a := attribute([]obs.SpanRecord{
		span("bench.job", 0, 20),
		span("orch.generation", 2, 18),
		span("gp.variation", 4, 12),   // island A
		span("gp.evaluate", 4, 16),    // island B
		span("evalx.simulate", 6, 10), // island B's worker
	})
	checkAttribution(t, a, 2,
		map[string]float64{"core": 0.2, "orchestrator": 0.2, "gp": 0.4, "evalx": 0.2},
		map[string]float64{"core": 4, "orchestrator": 4, "gp": 12, "evalx": 4})
}

func TestAttributeUnknownPrefix(t *testing.T) {
	// A layer the bench does not know ranks below every known one, so its
	// spans inside the job take their time from core.
	a := attribute([]obs.SpanRecord{
		span("bench.job", 0, 10),
		span("calib.ga", 1, 7),
		span("gp.evaluate", 7, 9),
	})
	checkAttribution(t, a, 1,
		map[string]float64{"core": 0.2, "calib": 0.6, "gp": 0.2},
		map[string]float64{"core": 2, "calib": 6, "gp": 2})
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"bench.job": "core", "bench.http": "http", "orch.migrate": "orchestrator",
		"gp.init_pop": "gp", "evalx.exog_plan": "evalx", "serve.kernel": "serve",
		"calib.ga": "calib", "nodot": "nodot",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCoverage(t *testing.T) {
	spans := []obs.SpanRecord{
		span("gp.evaluate", 0, 10),
		span("gp.evaluate", 20, 30),
		span("evalx.simulate", 5, 25), // half inside each evaluate
		span("evalx.simulate", 2, 4),
		span("gp.variation", 10, 20),
	}
	inside, outer := coverage(spans, func(n string) bool { return layerOf(n) == "evalx" }, "gp.evaluate")
	if math.Abs(inside-0.012) > 1e-12 || math.Abs(outer-0.020) > 1e-12 {
		t.Errorf("coverage = %v inside %v, want 0.012 inside 0.020", inside, outer)
	}
}

func TestSinkReceivesEverySpan(t *testing.T) {
	var sink spanSink
	tr := sink.tracer()
	sp := tr.Start("gp.evaluate")
	time.Sleep(time.Millisecond) // the 1ns threshold drops only zero-length spans
	sp.End()
	tr.Observe("serve.queue_wait", time.Now(), time.Microsecond)
	if got := sink.take(); len(got) != 2 {
		t.Fatalf("sink holds %d spans, want 2: %+v", len(got), got)
	}
	if got := sink.take(); len(got) != 0 {
		t.Fatalf("take left %d spans behind", len(got))
	}
}
