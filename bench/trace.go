package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gmr/internal/obs"
)

// Span collection and per-layer attribution for the traced run. The bench
// hands the program an obs.Tracer whose slow-span log fires for every span
// (threshold 1ns), so every span the program already emits reaches the
// sink, next to the bench's own bench.job / bench.http spans around the
// calls it makes. A span's layer is its name prefix, so a span added to the
// program later lands in its layer without a change here.

// spanSink keeps every span in memory until the run ends.
type spanSink struct {
	mu    sync.Mutex
	spans []obs.SpanRecord
}

// Add records one span; it is the tracer's SlowLog.
func (s *spanSink) Add(r obs.SpanRecord) {
	s.mu.Lock()
	s.spans = append(s.spans, r)
	s.mu.Unlock()
}

// tracer returns a tracer that reports every span to the sink.
func (s *spanSink) tracer() *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond, SlowLog: s.Add})
}

// take returns the spans recorded so far and empties the sink.
func (s *spanSink) take() []obs.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

// writeSpans writes spans as a JSON array to path.
func writeSpans(path string, spans []obs.SpanRecord) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerOf maps a span name to its layer: the bench's job span stands for
// the core layer it calls into, its request span for the HTTP handler, and
// every other span belongs to its name's prefix (orch.* to orchestrator).
func layerOf(name string) string {
	switch name {
	case "bench.job":
		return "core"
	case "bench.http":
		return "http"
	}
	prefix, _, _ := strings.Cut(name, ".")
	if prefix == "orch" {
		return "orchestrator"
	}
	return prefix
}

// layerDepth orders the known layers from the outermost call inwards:
// training runs core → orchestrator → gp → evalx, serving http → serve.
// A layer not listed is deeper than every listed one.
var layerDepth = map[string]int{
	"core": 0, "orchestrator": 1, "gp": 2, "evalx": 3,
	"http": 0, "serve": 1,
}

const unknownDepth = 4

func depthOf(layer string) int {
	if d, ok := layerDepth[layer]; ok {
		return d
	}
	return unknownDepth
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

func spanInterval(r obs.SpanRecord) interval {
	lo := r.Start.UnixNano()
	return interval{lo, lo + int64(r.Dur)}
}

// union merges intervals into a sorted list of disjoint ones.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// length is the total length of disjoint intervals, in nanoseconds.
func length(u []interval) int64 {
	var n int64
	for _, iv := range u {
		n += iv.hi - iv.lo
	}
	return n
}

// overlap is the length of iv covered by the disjoint sorted intervals u.
func overlap(iv interval, u []interval) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > iv.lo })
	var n int64
	for ; i < len(u) && u[i].lo < iv.hi; i++ {
		lo, hi := max(iv.lo, u[i].lo), min(iv.hi, u[i].hi)
		if hi > lo {
			n += hi - lo
		}
	}
	return n
}

// attribution is how a traced run's time divides across layers.
type attribution struct {
	// Covered is the time at least one span was open, in seconds.
	Covered float64
	// Share gives each instant of Covered to the deepest layer with a span
	// open at that instant, as a fraction of Covered; shares sum to 1.
	Share map[string]float64
	// Busy is, per layer, the sum over its spans of the span's duration
	// minus the part of it that deeper layers' spans cover, in seconds.
	Busy map[string]float64
}

// attribute divides the time covered by spans across their layers.
func attribute(spans []obs.SpanRecord) attribution {
	a := attribution{Share: map[string]float64{}, Busy: map[string]float64{}}
	byLayer := map[string][]interval{}
	var all []interval
	for _, r := range spans {
		iv := spanInterval(r)
		if iv.hi <= iv.lo {
			continue
		}
		l := layerOf(r.Name)
		byLayer[l] = append(byLayer[l], iv)
		all = append(all, iv)
	}
	covered := length(union(all))
	if covered == 0 {
		return a
	}
	a.Covered = float64(covered) / 1e9

	// Layers ordered deepest first, ties broken by name, so the first open
	// layer in this order owns the instant.
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		di, dj := depthOf(layers[i]), depthOf(layers[j])
		if di != dj {
			return di > dj
		}
		return layers[i] < layers[j]
	})

	// Share: sweep the span boundaries, keeping an open count per layer.
	type event struct {
		t     int64
		layer int
		delta int
	}
	var evs []event
	for li, l := range layers {
		for _, iv := range byLayer[l] {
			evs = append(evs, event{iv.lo, li, 1}, event{iv.hi, li, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	open := make([]int, len(layers))
	owned := make([]int64, len(layers))
	for i, e := range evs {
		if i > 0 && e.t > evs[i-1].t {
			for li, n := range open {
				if n > 0 {
					owned[li] += e.t - evs[i-1].t
					break
				}
			}
		}
		open[e.layer] += e.delta
	}
	for li, l := range layers {
		a.Share[l] = float64(owned[li]) / float64(covered)
	}

	// Busy: each span minus what deeper layers cover of it.
	for _, l := range layers {
		var deeper []interval
		for _, m := range layers {
			if depthOf(m) > depthOf(l) {
				deeper = append(deeper, byLayer[m]...)
			}
		}
		du := union(deeper)
		var busy int64
		for _, iv := range byLayer[l] {
			busy += iv.hi - iv.lo - overlap(iv, du)
		}
		a.Busy[l] = float64(busy) / 1e9
	}
	return a
}

// coverage returns the time spans named inner spend inside the union of the
// spans named outer (summed over inner spans, so parallel inner spans add
// up) and the length of that union, both in seconds.
func coverage(spans []obs.SpanRecord, inner func(string) bool, outer string) (inside, outerLen float64) {
	var outs []interval
	for _, r := range spans {
		if r.Name == outer {
			outs = append(outs, spanInterval(r))
		}
	}
	u := union(outs)
	var n int64
	for _, r := range spans {
		if inner(r.Name) {
			n += overlap(spanInterval(r), u)
		}
	}
	return float64(n) / 1e9, float64(length(u)) / 1e9
}
