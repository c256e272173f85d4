package main

import "testing"

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name          string
		parent        []float64
		change        []float64
		lowerIsBetter bool
		moreFailures  bool
		want          string
	}{
		{"faster in every pair", parent, shift(parent, -10), true, false, "improved"},
		{"higher is better", parent, shift(parent, 10), false, false, "improved"},
		{"slower beyond the bound", parent, shift(parent, 20), true, false, "regressed"},
		{"identical", parent, parent, true, false, "unchanged"},
		{"wins every pair by less than the parent's IQR", parent, shift(parent, -0.01), true, false, "unchanged"},
		{"slower within the bound", parent, shift(parent, 5), true, false, "unchanged"},
		{"fewer than ten pairs", parent[:9], shift(parent, -10)[:9], true, false, "unresolved"},
		{"spread wider than the bound", noisy, shift(noisy, -1), true, false, "unresolved"},
		{"every change run beats every parent run", noisy, shift(noisy, -200), true, false, "improved"},
		{"faster while failing more operations", parent, shift(parent, -10), true, true, "unresolved"},
		{"slower while failing more operations", parent, shift(parent, 20), true, true, "regressed"},
	} {
		if got := judge(c.parent, c.change, c.lowerIsBetter, 0.1, c.moreFailures); got.label != c.want {
			t.Errorf("%s: %s (%+v), want %s", c.name, got.label, got, c.want)
		}
	}
}

// TestPairUpDropsIncorrectRuns checks that a pair with an incorrect run on
// either side is left out, that traced runs and other workloads are
// ignored, and that failed operations are totalled over every run.
func TestPairUpDropsIncorrectRuns(t *testing.T) {
	rec := func(workload string, traced, correct bool, failed int, p50 float64) record {
		return record{Workload: workload, Traced: traced, result: result{Correct: correct, Attempted: 100,
			Failed: failed, Metrics: map[string]metricValue{"p50_ms": {p50, "ms"}}}}
	}
	parent := []record{
		rec("serve_point", false, true, 0, 1),
		rec("serve_point", true, true, 0, 99), // traced: ignored
		rec("serve_point", false, true, 0, 2),
		rec("serve_point", false, false, 3, 3), // incorrect parent run
		rec("serve_point", false, true, 0, 4),
		rec("revise_islands", false, true, 0, 99), // other workload
	}
	change := []record{
		rec("serve_point", false, false, 1, 10), // incorrect change run
		rec("serve_point", false, true, 2, 20),
		rec("serve_point", false, true, 0, 30),
		rec("serve_point", false, true, 0, 40),
	}
	s := pairUp(parent, change, "serve_point")
	if s.dropped != 2 || s.parentFailed != 3 || s.changeFailed != 3 {
		t.Fatalf("dropped %d, failed parent %d change %d; want 2, 3, 3", s.dropped, s.parentFailed, s.changeFailed)
	}
	p, c := series(s.parent, "p50_ms"), series(s.change, "p50_ms")
	if len(p) != 2 || p[0] != 2 || p[1] != 4 || len(c) != 2 || c[0] != 20 || c[1] != 40 {
		t.Fatalf("kept parent %v change %v; want [2 4] and [20 40]", p, c)
	}
}
