package gp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/dataset"
	"gmr/internal/evalx"
	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/tag"
)

// TestParamBatchFaultProtocol checks the panic protocol of a parameter
// sweep under injected panics. One EvaluateParamBatch call that panics
// must have committed every member before the panicker and nothing from
// the panicker on, and must have inserted nothing into the tier-2 fitness
// cache. The engine's sweep chunk (runCluster) must then score every
// member: the panickers quarantined, every other member bitwise equal to a
// sequential Evaluate on a fresh evaluator.
func TestParamBatchFaultProtocol(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2001, TrainEndYear: 2000})
	if err != nil {
		t.Fatal(err)
	}
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	consts := bio.DefaultConstants()
	newEval := func(spec string) *evalx.Evaluator {
		inj, err := faultinject.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := evalx.AllSpeedups(bio.SimConfig{SubSteps: 2, Phy0: ds.TrainObsPhy()[0], Zoo0: 1.5})
		opts.Faults = inj
		return evalx.New(ds.TrainForcing(), ds.TrainObsPhy(), consts, opts)
	}
	// evaluate runs one Evaluate call and reports whether it panicked.
	evaluate := func(ev *evalx.Evaluator, ind *gp.Individual) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		ev.Evaluate(ind)
		return false
	}
	base := gp.NewIndividual(&tag.DerivNode{Elem: g.Alphas[0]}, bio.Means(consts))
	newEval("").ResolveStruct(base) // memoize the structure key, as a champion carries it
	rng := rand.New(rand.NewSource(5))
	sweep := func() []*gp.Individual {
		out := make([]*gp.Individual, 12)
		for i := range out {
			out[i] = base.Clone()
			for j := range out[i].Params {
				out[i].Params[j] *= 1 + 0.2*(rng.Float64()-0.5)
			}
			out[i].Invalidate()
		}
		return out
	}
	clones := func(inds []*gp.Individual) []*gp.Individual {
		out := make([]*gp.Individual, len(inds))
		for i, ind := range inds {
			out[i] = ind.Clone()
			out[i].Invalidate()
		}
		return out
	}

	checked := 0
	for fseed := 1; fseed <= 40 && checked < 3; fseed++ {
		spec := fmt.Sprintf("seed=%d,panic:0.25", fseed)
		cands := sweep()
		// The sequential reference: one fresh evaluator, members in order.
		ref := clones(cands)
		refEv := newEval(spec)
		refEv.BeginBatch()
		first, panickers := -1, 0
		for i, c := range ref {
			if evaluate(refEv, c) {
				panickers++
				if first < 0 {
					first = i
				}
			}
		}
		refEv.EndBatch()
		if first < 1 || first == len(cands)-1 {
			continue // want a committed prefix and a remainder
		}
		checked++

		// One call: the prefix is committed, the panicker and every later
		// member are not, and tier 2 is untouched.
		ev := newEval(spec)
		ev.BeginBatch()
		one := clones(cands)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: EvaluateParamBatch did not panic at member %d", spec, first)
				}
			}()
			ev.EvaluateParamBatch(one)
		}()
		for i, c := range one {
			if c.Evaluated != (i < first) {
				t.Fatalf("%s: member %d evaluated=%t after a panic at member %d", spec, i, c.Evaluated, first)
			}
			if i < first && math.Float64bits(c.Fitness) != math.Float64bits(ref[i].Fitness) {
				t.Fatalf("%s: committed member %d fitness %v, sequential %v", spec, i, c.Fitness, ref[i].Fitness)
			}
		}
		for _, c := range clones(one[:first]) {
			ev.Evaluate(c)
		}
		if hits := ev.Stats().CacheHits; hits != 0 {
			t.Fatalf("%s: re-evaluating the committed prefix hit tier 2 %d times; a sweep must not insert", spec, hits)
		}
		ev.EndBatch()

		// The engine's sweep chunk scores every member.
		ev = newEval(spec)
		eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: 8, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ev.BeginBatch()
		eng.RunSweep(cands)
		ev.EndBatch()
		if q := eng.Quarantines(); q != int64(panickers) {
			t.Fatalf("%s: %d quarantines, want the %d panickers", spec, q, panickers)
		}
		for i, c := range cands {
			want := ref[i]
			if !want.Evaluated {
				want = &gp.Individual{Fitness: math.Inf(1), FullEval: true}
			}
			if !c.Evaluated || math.Float64bits(c.Fitness) != math.Float64bits(want.Fitness) || c.FullEval != want.FullEval {
				t.Fatalf("%s: member %d fitness %v (full %t, evaluated %t), sequential %v (full %t)",
					spec, i, c.Fitness, c.FullEval, c.Evaluated, want.Fitness, want.FullEval)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no fault seed panicked inside the sweep; the test exercised nothing")
	}
}
