package evalx

import (
	"math"
	"testing"

	"gmr/internal/faultinject"
)

// faultOpts builds cached+compiled options with the given fault spec.
func faultOpts(t *testing.T, obs []float64, spec string) Options {
	t.Helper()
	in, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Options{UseCache: true, UseCompile: true, Sim: simCfg(obs), Faults: in}
}

func TestInjectedPanicReachesCaller(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, faultOpts(t, obs, "seed=1,panic:1"))
	ind, _ := manualInd(t)
	ev.BeginBatch()
	defer ev.EndBatch()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an injected panic")
		}
		if _, ok := r.(faultinject.InjectedPanic); !ok {
			t.Fatalf("panic value %T, want faultinject.InjectedPanic", r)
		}
	}()
	ev.Evaluate(ind)
}

func TestNaNPoisonQuarantines(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, faultOpts(t, obs, "seed=1,nan:1"))
	ind, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(ind)
	ev.EndBatch()
	if !math.IsInf(ind.Fitness, 1) {
		t.Fatalf("poisoned fitness = %v, want +Inf", ind.Fitness)
	}
	if !ind.FullEval {
		t.Fatal("quarantined evaluation should count as full")
	}
	st := ev.Stats()
	if st.QuarNaN != 1 {
		t.Fatalf("QuarNaN = %d, want 1", st.QuarNaN)
	}
	if st.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", st.Quarantined())
	}
	// The poisoned +Inf is cached (the decision is deterministic per
	// key), so a re-evaluation is a tier-2 hit with the same fitness.
	c := ind.Clone()
	c.Evaluated = false
	ev.BeginBatch()
	ev.Evaluate(c)
	ev.EndBatch()
	if !math.IsInf(c.Fitness, 1) {
		t.Fatalf("cached poisoned fitness = %v, want +Inf", c.Fitness)
	}
	if ev.Stats().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", ev.Stats().CacheHits)
	}
}

// TestFaultDecisionsDeterministicAcrossEvaluators: two fresh evaluators
// with the same fault seed make identical injection decisions for the same
// individuals (cache warmth and evaluation order do not matter).
func TestFaultDecisionsDeterministicAcrossEvaluators(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	inds := make([]float64, 16)
	mk := func() *Evaluator {
		return New(forcing, obs, consts, faultOpts(t, obs, "seed=9,nan:0.5"))
	}
	a, b := mk(), mk()
	a.BeginBatch()
	for i := range inds {
		c := randomInd(t, g, int64(i))
		a.Evaluate(c)
		inds[i] = c.Fitness
	}
	a.EndBatch()
	b.BeginBatch()
	for i := len(inds) - 1; i >= 0; i-- { // reversed order
		c := randomInd(t, g, int64(i))
		b.Evaluate(c)
		if c.Fitness != inds[i] && !(math.IsNaN(c.Fitness) && math.IsNaN(inds[i])) {
			t.Fatalf("individual %d: fitness %v on evaluator b, %v on a", i, c.Fitness, inds[i])
		}
	}
	b.EndBatch()
	if a.Stats().QuarNaN == 0 {
		t.Fatal("nan:0.5 over 16 individuals injected nothing (suspicious)")
	}
}

func TestFaultFreeRunHasNoQuarantines(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ev := New(forcing, obs, consts, faultOpts(t, obs, ""))
	ind, _ := manualInd(t)
	ev.BeginBatch()
	ev.Evaluate(ind)
	ev.EndBatch()
	st := ev.Stats()
	if st.Quarantined() != 0 {
		t.Fatalf("fault-free run quarantined %d evaluations", st.Quarantined())
	}
	if math.IsInf(ind.Fitness, 1) || math.IsNaN(ind.Fitness) {
		t.Fatalf("fault-free fitness = %v", ind.Fitness)
	}
}
