// Package faultinject implements a deterministic, RNG-seeded fault
// injector for chaos-testing the evaluation and orchestration stack.
//
// Grammar-generated candidate models routinely produce unstable
// simulations (divergence, overflow, NaN/Inf cascades), and long-lived
// island runs must survive panicking workers and torn checkpoint writes.
// The injector lets tests and operators *provoke* those failures on
// demand, with three properties the rest of the stack relies on:
//
//   - Deterministic: every injection decision is a pure function of
//     (seed, fault class, site hash). The site hash is derived from the
//     evaluation input (e.g. the evaluator's (structure, params) cache
//     key), never from a global sequence number, so the same run with
//     the same fault seed injects exactly the same faults regardless of
//     worker count, goroutine scheduling, or checkpoint/resume splits.
//   - Zero-cost when disabled: a nil *Injector is valid and every method
//     on it is an allocation-free early return, so the evaluator hot
//     path (tier-2 cache hits run at 0 allocs/op) pays one nil check.
//   - Counted: injections are tallied per fault class in atomics and
//     exposed via Snapshot for the orchestrator's telemetry stream.
//
// Fault spec grammar (the -faults flag of cmd/gmr and cmd/riverbench):
//
//	spec    = entry ("," entry)*
//	entry   = "seed=" int
//	        | "panic:" prob          inject a worker panic before evaluation
//	        | "nan:"   prob          poison one simulation step with NaN
//	        | "latency:" prob [":" duration]   sleep before evaluation
//	        | "trunc:" prob          truncate a checkpoint write (torn write)
//	prob    = float in [0, 1]
//
// Example: "seed=42,panic:0.01,nan:0.01,latency:0.005:2ms,trunc:0.1".
// An empty spec parses to a nil (disabled) injector.
package faultinject

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gmr/internal/fnv"
)

// Fault enumerates the injectable fault classes.
type Fault uint8

const (
	// Panic makes the evaluator panic before evaluating a candidate,
	// exercising the engine's worker-pool panic isolation.
	Panic Fault = iota
	// NaN poisons one simulation step of a candidate's evaluation with a
	// NaN biomass, exercising the numeric quarantine.
	NaN
	// Latency sleeps before an evaluation, exercising per-evaluation
	// deadlines and stall tolerance.
	Latency
	// Truncate tears a checkpoint write (the file is truncated before the
	// atomic rename), exercising last-good checkpoint recovery.
	Truncate

	numFaults
)

// String returns the spec-grammar name of the fault class.
func (f Fault) String() string {
	switch f {
	case Panic:
		return "panic"
	case NaN:
		return "nan"
	case Latency:
		return "latency"
	case Truncate:
		return "trunc"
	default:
		return "?"
	}
}

// salts decorrelate the per-class decision streams: the same site hash can
// draw a panic but not a NaN.
var salts = [numFaults]uint64{
	Panic:    0x9e3779b97f4a7c15,
	NaN:      0xc2b2ae3d27d4eb4f,
	Latency:  0x165667b19e3779f9,
	Truncate: 0x27d4eb2f165667c5,
}

// DefaultLatency is the artificial delay of Latency injections when the
// spec does not name one.
const DefaultLatency = time.Millisecond

// Injector decides and counts fault injections. The zero probability for a
// class disables it; a nil *Injector disables everything (all methods are
// nil-safe). Injectors are safe for concurrent use.
type Injector struct {
	seed  uint64
	prob  [numFaults]float64
	lat   time.Duration
	count [numFaults]atomic.Int64
}

// New builds an injector with the given seed and per-class probabilities
// (classes absent from probs are disabled). Latency injections sleep for
// DefaultLatency; use Parse for full spec control.
func New(seed int64, probs map[Fault]float64) *Injector {
	in := &Injector{seed: uint64(seed), lat: DefaultLatency}
	for f, p := range probs {
		if int(f) < int(numFaults) {
			in.prob[f] = p
		}
	}
	return in
}

// Parse builds an injector from a fault spec (see the package comment for
// the grammar). An empty spec returns (nil, nil): faults disabled.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{seed: 1, lat: DefaultLatency}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(entry, "seed="); ok {
			s, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", rest, err)
			}
			in.seed = uint64(s)
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("faultinject: entry %q is not name:prob", entry)
		}
		var f Fault
		switch parts[0] {
		case "panic":
			f = Panic
		case "nan":
			f = NaN
		case "latency":
			f = Latency
		case "trunc":
			f = Truncate
		default:
			return nil, fmt.Errorf("faultinject: unknown fault class %q (want panic, nan, latency, or trunc)", parts[0])
		}
		p, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("faultinject: bad probability %q for %s (want [0,1])", parts[1], parts[0])
		}
		in.prob[f] = p
		if f == Latency && len(parts) >= 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: bad latency duration %q: %v", parts[2], err)
			}
			in.lat = d
		} else if f != Latency && len(parts) > 2 {
			return nil, fmt.Errorf("faultinject: entry %q has extra fields", entry)
		}
	}
	return in, nil
}

// splitmix64's finalizer: a full-avalanche 64-bit mix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hit reports whether fault class f fires at site hash h, and counts the
// injection when it does. The decision is a pure function of (seed, f, h):
// nothing about call order, concurrency, or process restarts changes it.
// Nil-safe: a nil injector never fires.
func (in *Injector) Hit(f Fault, h uint64) bool {
	if in == nil {
		return false
	}
	p := in.prob[f]
	if p <= 0 {
		return false
	}
	// Top 53 bits of the mixed hash as a uniform in [0, 1).
	u := float64(mix(in.seed^salts[f]^h)>>11) / (1 << 53)
	if u >= p {
		return false
	}
	in.count[f].Add(1)
	return true
}

// Sleep applies an artificial-latency injection at site hash h: when the
// Latency class fires, the calling goroutine sleeps for the configured
// duration. Nil-safe no-op otherwise.
func (in *Injector) Sleep(h uint64) {
	if in == nil || in.prob[Latency] <= 0 {
		return
	}
	if in.Hit(Latency, h) {
		time.Sleep(in.lat)
	}
}

// Enabled reports whether any fault class has a positive probability.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	for _, p := range in.prob {
		if p > 0 {
			return true
		}
	}
	return false
}

// Seed returns the decision seed (0 for a nil injector).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Count returns the number of injections of class f so far.
func (in *Injector) Count(f Fault) int64 {
	if in == nil {
		return 0
	}
	return in.count[f].Load()
}

// Snapshot is the JSON-marshalable injection tally, embedded in the
// orchestrator's run_end telemetry record.
type Snapshot struct {
	Seed        uint64 `json:"seed"`
	Panics      int64  `json:"panics"`
	NaNs        int64  `json:"nans"`
	Latencies   int64  `json:"latencies"`
	Truncations int64  `json:"truncations"`
}

// Snapshot returns the current injection counters (nil for a nil injector).
func (in *Injector) Snapshot() *Snapshot {
	if in == nil {
		return nil
	}
	return &Snapshot{
		Seed:        in.seed,
		Panics:      in.count[Panic].Load(),
		NaNs:        in.count[NaN].Load(),
		Latencies:   in.count[Latency].Load(),
		Truncations: in.count[Truncate].Load(),
	}
}

// String renders the active spec, e.g. "seed=42,panic:0.01,nan:0.01".
func (in *Injector) String() string {
	if in == nil {
		return "disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", in.seed)
	for f := Fault(0); f < numFaults; f++ {
		if in.prob[f] <= 0 {
			continue
		}
		fmt.Fprintf(&b, ",%s:%g", f, in.prob[f])
		if f == Latency && in.lat != DefaultLatency {
			fmt.Fprintf(&b, ":%s", in.lat)
		}
	}
	return b.String()
}

// InjectedPanic is the value thrown by Panic injections, so recovery sites
// and logs can distinguish injected faults from real bugs.
type InjectedPanic struct {
	// Site names the injection point (e.g. "evalx.Evaluate").
	Site string
	// Hash is the site hash whose decision fired.
	Hash uint64
}

// String implements fmt.Stringer for panic logs.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (site hash %#x)", p.Site, p.Hash)
}

// HashBytes returns the FNV-1a hash of b, the canonical way to derive a
// site hash from an evaluation key.
func HashBytes(b []byte) uint64 { return uint64(fnv.New().Bytes(b)) }

// HashString is HashBytes for strings, without conversion allocation.
func HashString(s string) uint64 { return uint64(fnv.New().Str(s)) }

// HashFloats folds a float64 vector (bit pattern, so ±0 and NaN payloads
// are distinguished) into a site hash, seeded by base.
func HashFloats(base uint64, xs []float64) uint64 {
	h := base
	for _, x := range xs {
		h = mix(h ^ math.Float64bits(x))
	}
	return h
}
