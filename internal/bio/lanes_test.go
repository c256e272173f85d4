package bio

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"gmr/internal/expr"
)

// Differential tests for the lane-batched kernel: one n-member KernelLanes
// call must deliver, per member, exactly the hook sequence a one-member call
// (the scalar loop) produces for that member's parameter vector — same
// days, same bitwise biomasses, same non-finite abort values, same early
// stops — regardless of how many lanes run together or in what order other
// lanes die.

func randBoxParams(rng *rand.Rand, consts []Constant) []float64 {
	params := make([]float64, len(consts))
	for i, c := range consts {
		params[i] = c.Min + rng.Float64()*(c.Max-c.Min)
	}
	return params
}

// TestKernelLanesMatchesScalarKernel runs every segment-test system shape
// with 1..Lanes members per batch, mixed per-member early stops, and
// configs spanning clamping modes; each member's lane trace must equal its
// scalar trace bitwise.
func TestKernelLanesMatchesScalarKernel(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	rng := rand.New(rand.NewSource(7))
	cfgs := []SimConfig{
		{SubSteps: 1, Phy0: 2, Zoo0: 1},
		{SubSteps: 4, Phy0: 0.5, Zoo0: 1.5},
		{SubSteps: 2, Phy0: 3, Zoo0: 0.1, ClampMin: -1, ClampMax: -1},
		{SubSteps: 3, Phy0: 1, Zoo0: 1, ClampMin: -1, ClampMax: 50},
	}
	for si, pair := range segTestSystems(t, paramIdx) {
		seg, err := NewSegSystem(pair[0], pair[1])
		if err != nil {
			t.Fatalf("system %d: NewSegSystem: %v", si, err)
		}
		for trial := 0; trial < 10; trial++ {
			forcing := randForcing(rng, 30+rng.Intn(40))
			plan := seg.NewExogPlan(forcing)
			cfg := cfgs[trial%len(cfgs)]
			n := 1 + rng.Intn(expr.Lanes)
			params := make([][]float64, n)
			stopAt := make([]int, n)
			for m := range params {
				params[m] = randBoxParams(rng, consts)
				stopAt[m] = -1
				if rng.Intn(3) == 0 {
					stopAt[m] = rng.Intn(len(forcing))
				}
			}

			// Scalar reference: one one-member call per member.
			want := runAlone(seg, plan, cfg, params, stopAt)

			// Lane run: all members in one batch.
			got := make([]stepTrace, n)
			var scLanes SimScratch
			seg.KernelLanes(plan, cfg, &scLanes, params, func(m, day int, bphy float64) bool {
				return got[m].hook(stopAt[m])(day, bphy)
			}, nil)

			for m := range params {
				if !sameTrace(&want[m], &got[m]) {
					t.Fatalf("system %d trial %d member %d/%d: lane trace diverges from scalar\nscalar days %v\nlane   days %v",
						si, trial, m, n, want[m].ts, got[m].ts)
				}
			}
		}
	}
}

// TestRunLanesChunksWideBatches checks KernelLanes over member lists of
// every shape — one partial launch, one full launch, and several launches
// with a ragged tail — against scalar runs: onLaunch sees ⌈n/Lanes⌉
// launches of Lanes members followed by the remainder, and hook member
// indices are global indices into params.
func TestRunLanesChunksWideBatches(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	forcing := randForcing(rng, 50)
	plan := seg.NewExogPlan(forcing)
	cfg := SimConfig{SubSteps: 4, Phy0: 1, Zoo0: 0.5}
	for _, n := range []int{1, expr.Lanes, expr.Lanes + 1, 2*expr.Lanes + 4} {
		params := make([][]float64, n)
		for m := range params {
			params[m] = randBoxParams(rng, consts)
		}

		want := runAlone(seg, plan, cfg, params, nil)

		got := make([]stepTrace, n)
		var sizes []int
		var scLanes SimScratch
		seg.KernelLanes(plan, cfg, &scLanes, params, func(m, day int, bphy float64) bool {
			if m < 0 || m >= n {
				t.Fatalf("n=%d: hook member %d is not an index into params", n, m)
			}
			return got[m].hook(-1)(day, bphy)
		}, func(k int, start time.Time, d time.Duration) {
			if start.IsZero() || d < 0 {
				t.Fatalf("n=%d: launch observed with start %v, duration %v", n, start, d)
			}
			sizes = append(sizes, k)
		})
		var wantSizes []int
		for left := n; left > 0; left -= expr.Lanes {
			wantSizes = append(wantSizes, min(left, expr.Lanes))
		}
		if !slices.Equal(sizes, wantSizes) {
			t.Fatalf("n=%d: launch sizes %v, want %v", n, sizes, wantSizes)
		}
		for m := range params {
			if !sameTrace(&want[m], &got[m]) {
				t.Fatalf("n=%d member %d: lane trace diverges from scalar", n, m)
			}
		}
	}
}

// TestKernelLanesCompactionStress forces heavy mid-flight lane death: the
// hostile blow-up system plus aggressive per-member early stops, so lanes
// drop in many different orders. Every surviving member must still match
// its scalar trace.
func TestKernelLanesCompactionStress(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pairs := segTestSystems(t, paramIdx)
	hostile := pairs[len(pairs)-1]
	seg, err := NewSegSystem(hostile[0], hostile[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		forcing := randForcing(rng, 20)
		plan := seg.NewExogPlan(forcing)
		cfg := SimConfig{SubSteps: 2, Phy0: 0.1 + rng.Float64()*3, Zoo0: rng.Float64()}
		if trial%2 == 0 {
			cfg.ClampMin, cfg.ClampMax = -1, -1
		}
		n := expr.Lanes
		params := make([][]float64, n)
		stopAt := make([]int, n)
		for m := range params {
			params[m] = randBoxParams(rng, consts)
			stopAt[m] = rng.Intn(len(forcing)) // every member stops early somewhere
		}

		want := runAlone(seg, plan, cfg, params, stopAt)

		got := make([]stepTrace, n)
		var scLanes SimScratch
		seg.KernelLanes(plan, cfg, &scLanes, params, func(m, day int, bphy float64) bool {
			return got[m].hook(stopAt[m])(day, bphy)
		}, nil)
		for m := range params {
			if !sameTrace(&want[m], &got[m]) {
				t.Fatalf("trial %d member %d: compacted lane trace diverges\nscalar days %v\nlane   days %v",
					trial, m, want[m].ts, got[m].ts)
			}
		}
	}
}

// TestKernelLanesAllocFree: steady-state lane batches with a reused scratch
// and a launch observer must not allocate.
func TestKernelLanesAllocFree(t *testing.T) {
	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	pair := segTestSystems(t, paramIdx)[0]
	seg, err := NewSegSystem(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	forcing := randForcing(rng, 60)
	plan := seg.NewExogPlan(forcing)
	cfg := SimConfig{SubSteps: 4, Phy0: 1, Zoo0: 0.5}
	params := make([][]float64, expr.Lanes)
	for m := range params {
		params[m] = randBoxParams(rng, consts)
	}
	var sc SimScratch
	hook := func(m, day int, bphy float64) bool { return true }
	launches := 0
	onLaunch := func(int, time.Time, time.Duration) { launches++ }
	// Warm the scratch buffers once.
	seg.KernelLanes(plan, cfg, &sc, params, hook, onLaunch)
	allocs := testing.AllocsPerRun(10, func() {
		seg.KernelLanes(plan, cfg, &sc, params, hook, onLaunch)
	})
	if allocs != 0 {
		t.Fatalf("lane batch allocates %.1f times per run; want 0", allocs)
	}
	if launches == 0 {
		t.Fatal("onLaunch never fired")
	}
}
