package bio

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Tests for the on-demand exogenous plan: rows filled block by block as the
// kernels reach them must equal one eager EvalExog over the whole window
// bit for bit, a simulation stopped early must fill only the blocks it
// reached, and concurrent readers of one fresh plan must see the rows a
// serial run sees.

// planSystems returns one structure with hoisted exogenous registers
// (k > 0) and one without (k == 0).
func planSystems(t *testing.T) map[string]*SegSystem {
	t.Helper()
	paramIdx := ParamIndex(DefaultConstants())
	srcs := map[string][2]string{
		"k>0": {
			"BPhy * CUA * min(Vn / (Vn + CN), Vp / (Vp + CP), Vlgt / CBL) - CMFR * BZoo * (BPhy / (BPhy + CFS))",
			"CUZ * BZoo * (BPhy / (BPhy + CFS)) - CDZ * BZoo",
		},
		"k==0": {
			"CUA * BPhy - CMFR * BZoo * BPhy",
			"CUZ * BZoo * BPhy - CDZ * BZoo",
		},
	}
	out := map[string]*SegSystem{}
	for name, src := range srcs {
		seg, err := NewSegSystem(bindBio(t, src[0], paramIdx), bindBio(t, src[1], paramIdx))
		if err != nil {
			t.Fatalf("%s: NewSegSystem: %v", name, err)
		}
		if k := seg.Prog.ExogWidth(); (k > 0) != (name == "k>0") {
			t.Fatalf("%s: ExogWidth = %d", name, k)
		}
		out[name] = seg
	}
	return out
}

// eagerRows evaluates the EXOG segment over the whole window in one call.
func eagerRows(seg *SegSystem, forcing [][]float64) []float64 {
	mat := make([]float64, len(forcing)*seg.Prog.ExogWidth())
	seg.Prog.EvalExog(forcing, make([]float64, seg.Prog.NumRegs()), mat)
	return mat
}

// eagerPlan is a plan whose every block is a slice of the eager matrix and
// whose watermark covers the window: the reference the kernels read
// without filling anything.
func eagerPlan(seg *SegSystem, forcing [][]float64) *ExogPlan {
	p := seg.NewExogPlan(forcing)
	mat := eagerRows(seg, forcing)
	for b := range p.blocks {
		p.blocks[b] = mat[b*planBlock*p.k : min((b+1)*planBlock, len(forcing))*p.k]
	}
	p.built.Store(int64(len(p.blocks)))
	return p
}

// filledRows concatenates the blocks below the plan's watermark.
func filledRows(p *ExogPlan) []float64 {
	var rows []float64
	for _, blk := range p.blocks[:p.built.Load()] {
		rows = append(rows, blk...)
	}
	return rows
}

// wantBlocks is the number of blocks a plan of width k fills when its
// furthest reader stops after day d.
func wantBlocks(k, d int) int64 {
	if k == 0 {
		return 0
	}
	return int64((d + planBlock) / planBlock) // ⌈(d+1)/planBlock⌉
}

// kernelTrace runs the scalar loop (a one-member KernelLanes call) over
// plan, stopping after day stop (stop < 0: the whole window).
func kernelTrace(seg *SegSystem, plan *ExogPlan, params []float64, stop int) *stepTrace {
	return &laneTraces(seg, plan, [][]float64{params}, []int{stop})[0]
}

// laneTraces runs the lane kernel over plan, member m stopping after day
// stops[m] (negative: the whole window).
func laneTraces(seg *SegSystem, plan *ExogPlan, params [][]float64, stops []int) []stepTrace {
	trs := make([]stepTrace, len(params))
	var sc SimScratch
	seg.KernelLanes(plan, SimConfig{SubSteps: 2, Phy0: 2, Zoo0: 1}, &sc, params, func(m, t int, bphy float64) bool {
		trs[m].ts = append(trs[m].ts, t)
		trs[m].vals = append(trs[m].vals, math.Float64bits(bphy))
		return stops[m] < 0 || t < stops[m]
	}, nil)
	return trs
}

// TestExogPlanOnDemandMatchesEager: across windows on both sides of the
// block size and of a group of expr.Lanes time lanes, rows filled through
// the scalar loop and the lanes equal the eager matrix bitwise, and so do
// the traces of both kernels; a reader stopping after day d (inside, at the
// end of, or just past a group included) fills exactly ⌈(d+1)/planBlock⌉
// blocks (none when k == 0), and the plan drops its forcing rows exactly
// when every block is filled.
func TestExogPlanOnDemandMatchesEager(t *testing.T) {
	consts := DefaultConstants()
	rng := rand.New(rand.NewSource(17))
	for name, seg := range planSystems(t) {
		for _, days := range []int{1, 7, 8, 9, 127, 128, 129, 3653} {
			forcing := randForcing(rng, days)
			want := eagerRows(seg, forcing)
			ref := eagerPlan(seg, forcing)
			k := seg.Prog.ExogWidth()
			params := [][]float64{Means(consts), randBoxParams(rng, consts), randBoxParams(rng, consts)}

			stops := []int{-1}
			for _, d := range []int{0, 6, 7, 8, 126, 127, 128, 129, days / 2, days - 1} {
				if d < days {
					stops = append(stops, d)
				}
			}
			for _, stop := range stops {
				last := stop
				if stop < 0 {
					last = days - 1
				}

				plan := seg.NewExogPlan(forcing)
				if got, ref := kernelTrace(seg, plan, params[0], stop), kernelTrace(seg, ref, params[0], stop); !sameTrace(got, ref) {
					t.Fatalf("%s days=%d stop=%d: scalar-loop trace differs from the eager plan's", name, days, stop)
				}
				if got, w := plan.built.Load(), wantBlocks(k, last); got != w {
					t.Fatalf("%s days=%d stop=%d: scalar loop filled %d blocks, want %d", name, days, stop, got, w)
				}
				if rows := filledRows(plan); !bitsEqual(rows, want[:len(rows)]) {
					t.Fatalf("%s days=%d stop=%d: scalar-loop-filled rows differ from eager EvalExog", name, days, stop)
				}
				if full := plan.built.Load() == int64(len(plan.blocks)); full != (plan.forcing == nil) {
					t.Fatalf("%s days=%d stop=%d: plan holds forcing rows = %v with %d of %d blocks filled", name, days, stop, plan.forcing != nil, plan.built.Load(), len(plan.blocks))
				}

				// Lanes: the first member stops at stop, the others earlier,
				// so the furthest reader sets the watermark.
				laneStops := []int{stop, last / 2, last / 3}
				plan = seg.NewExogPlan(forcing)
				got, wantTr := laneTraces(seg, plan, params, laneStops), laneTraces(seg, ref, params, laneStops)
				for m := range got {
					if !sameTrace(&got[m], &wantTr[m]) {
						t.Fatalf("%s days=%d stop=%d: KernelLanes member %d trace differs from the eager plan's", name, days, stop, m)
					}
				}
				if got, w := plan.built.Load(), wantBlocks(k, last); got != w {
					t.Fatalf("%s days=%d stop=%d: KernelLanes filled %d blocks, want %d", name, days, stop, got, w)
				}
				if rows := filledRows(plan); !bitsEqual(rows, want[:len(rows)]) {
					t.Fatalf("%s days=%d stop=%d: KernelLanes-filled rows differ from eager EvalExog", name, days, stop)
				}
			}
		}
	}
}

// TestExogPlanConcurrentFill: eight goroutines run the scalar loop or lanes
// with different stop days on one fresh shared plan; every output equals a
// serial run's, and the plan ends up filled exactly as far as the furthest
// reader went. Run under -race by `make chaos`.
func TestExogPlanConcurrentFill(t *testing.T) {
	consts := DefaultConstants()
	seg := planSystems(t)["k>0"]
	rng := rand.New(rand.NewSource(23))
	forcing := randForcing(rng, 1000)
	params := [][]float64{Means(consts), randBoxParams(rng, consts), randBoxParams(rng, consts)}
	stops := []int{0, 127, 128, 300, 511, 640, 999, -1}

	run := func(plan *ExogPlan, g int) []stepTrace {
		if g%2 == 0 {
			return []stepTrace{*kernelTrace(seg, plan, params[g%len(params)], stops[g])}
		}
		return laneTraces(seg, plan, params, []int{stops[g], stops[g] / 2, stops[g] / 3})
	}
	serial := make([][]stepTrace, len(stops))
	for g := range stops {
		serial[g] = run(seg.NewExogPlan(forcing), g)
	}

	shared := seg.NewExogPlan(forcing)
	got := make([][]stepTrace, len(stops))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range stops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = run(shared, g)
		}()
	}
	close(start)
	wg.Wait()

	for g := range stops {
		for m := range serial[g] {
			if !sameTrace(&got[g][m], &serial[g][m]) {
				t.Fatalf("goroutine %d member %d: concurrent trace differs from the serial run", g, m)
			}
		}
	}
	if got, want := shared.built.Load(), wantBlocks(shared.k, len(forcing)-1); got != want {
		t.Fatalf("shared plan filled %d blocks, want %d", got, want)
	}
	if !bitsEqual(filledRows(shared), eagerRows(seg, forcing)) {
		t.Fatal("concurrently filled rows differ from eager EvalExog")
	}
	if shared.forcing != nil {
		t.Fatal("a fully filled plan still holds its forcing rows")
	}
}
