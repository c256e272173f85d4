package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gmr/internal/dataset"
)

// Tests for the BENCH_EVAL.json regression comparator: the 15% ns/op
// limit and the zero-tolerance allocation rule.

func writeBaseline(t *testing.T, v any) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func snap(procs int, results ...benchEvalResult) *benchEvalSnapshot {
	return &benchEvalSnapshot{
		GoVersion: "go1.24.0",
		Entries:   []benchEvalEntry{{GOMAXPROCS: procs, Benchmarks: results}},
	}
}

func TestCompareBenchBaselineWithinLimits(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1000, AllocsPerOp: 1}))
	cur := snap(1, benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1100, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("10%% slower should pass the 15%% limit: %v", err)
	}
}

func TestCompareBenchBaselineNsRegression(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1000, AllocsPerOp: 1}))
	cur := snap(1, benchEvalResult{Name: "evaluate_tier1_hit", NsPerOp: 1200, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err == nil {
		t.Fatal("20% ns/op regression must fail")
	}
}

func TestCompareBenchBaselineAllocRegression(t *testing.T) {
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_param_batch", NsPerOp: 1000, AllocsPerOp: 0}))
	cur := snap(1, benchEvalResult{Name: "evaluate_param_batch", NsPerOp: 900, AllocsPerOp: 1})
	if err := compareBenchBaseline(cur, base); err == nil {
		t.Fatal("a single extra alloc/op must fail, even when faster")
	}
}

// TestBenchEvalCachePassExercisesShortCircuits guards against the
// short-circuit path going dormant in the snapshot workload: with
// per-round batch boundaries the reference fitness commits at every
// EndBatch, so later rounds must actually stop hopeless candidates early
// (BENCH_EVAL.json reports a live short_circuits count, not a stale zero).
func TestBenchEvalCachePassExercisesShortCircuits(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	cache := benchEvalCachePass(ds)
	if cache.Evaluations == 0 {
		t.Fatal("cache pass evaluated nothing")
	}
	if cache.ShortCircuits == 0 {
		t.Error("cache pass produced zero short circuits; the snapshot's short-circuit telemetry is dormant")
	}
	if cache.StepsEvaluated >= cache.StepsPossible {
		t.Errorf("short circuiting saved no steps: %d evaluated of %d possible",
			cache.StepsEvaluated, cache.StepsPossible)
	}
}

func TestCompareBenchBaselineSkipsAndErrors(t *testing.T) {
	// New benchmarks (no baseline row) are informational, not failures.
	base := writeBaseline(t, snap(1,
		benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267}))
	cur := snap(1,
		benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000, AllocsPerOp: 267},
		benchEvalResult{Name: "brand_new_bench", NsPerOp: 9999, AllocsPerOp: 99})
	if err := compareBenchBaseline(cur, base); err != nil {
		t.Fatalf("new benchmark must not fail the comparison: %v", err)
	}
	// But zero comparable benchmarks is an error (mismatched snapshot).
	cur2 := snap(8, benchEvalResult{Name: "evaluate_cold", NsPerOp: 1000})
	if err := compareBenchBaseline(cur2, base); err == nil {
		t.Fatal("no comparable benchmarks must be an error")
	}
	if err := compareBenchBaseline(cur, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline must be an error")
	}
}
