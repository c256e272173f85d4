package ensemble

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gmr/internal/bio"
	"gmr/internal/dataset"
)

// fixture compiles the manual process over a synthetic window and returns
// everything an ensemble run needs.
func fixture(t *testing.T, days int) (*bio.SegSystem, *bio.ExogPlan, bio.SimConfig, []bio.Constant) {
	t.Helper()
	phy, zoo, consts, err := bio.ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bio.NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 3, StartYear: 2000, EndYear: 2002, TrainEndYear: 2001})
	if err != nil {
		t.Fatal(err)
	}
	plan := sys.NewExogPlan(ds.Forcing[:days])
	sim := dataset.ModelSimConfig(2, ds.ObsPhy[0], ds.ObsZoo[0])
	return sys, plan, sim, consts
}

// jittered draws n parameter vectors around the Table III means, inside the
// box, deterministic per seed.
func jittered(consts []bio.Constant, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, len(consts))
		for j, c := range consts {
			v[j] = c.Mean + 0.05*(c.Max-c.Min)*(rng.Float64()-0.5)
		}
		out[i] = v
	}
	return out
}

// TestRunMatchesSingleMember pins the lane-batching invariant the whole
// subsystem rests on: a member's trajectory inside a 20-wide ensemble is
// bitwise identical to simulating that member alone.
func TestRunMatchesSingleMember(t *testing.T) {
	const days = 30
	sys, plan, sim, consts := fixture(t, days)
	members := jittered(consts, 20, 11)

	var sc bio.SimScratch
	launches, filled := 0, 0
	batch := Run(sys, plan, sim, members, days, &sc, func(n int, _ time.Time, _ time.Duration) {
		launches++
		filled += n
	})
	if launches != 3 || filled != 20 {
		t.Fatalf("launches=%d members=%d, want 3/20", launches, filled)
	}
	for i, m := range members {
		var sc1 bio.SimScratch
		solo := Run(sys, plan, sim, [][]float64{m}, days, &sc1, nil)
		if len(solo.Preds[0]) != len(batch.Preds[i]) {
			t.Fatalf("member %d: %d vs %d days", i, len(batch.Preds[i]), len(solo.Preds[0]))
		}
		for tt := range solo.Preds[0] {
			if math.Float64bits(solo.Preds[0][tt]) != math.Float64bits(batch.Preds[i][tt]) {
				t.Fatalf("member %d day %d: batched %v vs solo %v", i, tt, batch.Preds[i][tt], solo.Preds[0][tt])
			}
		}
	}
}

// TestRunDeterministic: same inputs, fresh scratch ⇒ bitwise-identical
// trajectories and reduction.
func TestRunDeterministic(t *testing.T) {
	const days = 45
	sys, plan, sim, consts := fixture(t, days)
	members := jittered(consts, 13, 5)
	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.95}

	simulate := func(sc *bio.SimScratch) (*Reduction, []MemberFault) {
		run := Run(sys, plan, sim, members, days, sc, nil)
		red, err := Reduce(run, days, qs)
		if err != nil {
			t.Fatal(err)
		}
		return red, run.Faults
	}
	var sc1, sc2 bio.SimScratch
	r1, f1 := simulate(&sc1)
	r2, f2 := simulate(&sc2)
	if len(f1) != len(f2) {
		t.Fatalf("fault counts differ: %d vs %d", len(f1), len(f2))
	}
	if r1.Survivors != r2.Survivors {
		t.Fatalf("survivors differ: %d vs %d", r1.Survivors, r2.Survivors)
	}
	for i := range r1.Bands {
		for tt := range r1.Bands[i] {
			if math.Float64bits(r1.Bands[i][tt]) != math.Float64bits(r2.Bands[i][tt]) {
				t.Fatalf("band %d day %d differs", i, tt)
			}
		}
	}
	for tt := range r1.Mean {
		if math.Float64bits(r1.Mean[tt]) != math.Float64bits(r2.Mean[tt]) ||
			math.Float64bits(r1.Spread[tt]) != math.Float64bits(r2.Spread[tt]) {
			t.Fatalf("mean/spread day %d differs", tt)
		}
	}
}

// TestRunQuarantinesDivergentMember: a parameter vector driven far outside
// the physical box overflows the integrator; the member is quarantined with
// a reason code and the survivors' bands are unaffected by its presence.
func TestRunQuarantinesDivergentMember(t *testing.T) {
	const days = 30
	sys, plan, sim, consts := fixture(t, days)
	members := jittered(consts, 5, 2)
	bad := make([]float64, len(consts))
	for j := range bad {
		bad[j] = 1e300
	}
	members = append(members, bad)

	var sc bio.SimScratch
	run := Run(sys, plan, sim, members, days, &sc, nil)
	if len(run.Faults) != 1 {
		t.Fatalf("faults: %+v, want exactly the divergent member", run.Faults)
	}
	f := run.Faults[0]
	if f.Member != 5 || (f.Reason != "nan" && f.Reason != "inf") {
		t.Fatalf("fault %+v", f)
	}
	if len(run.Preds[5]) >= days {
		t.Fatal("divergent member produced a full trajectory")
	}

	red, err := Reduce(run, days, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if red.Survivors != 5 {
		t.Fatalf("survivors %d, want 5", red.Survivors)
	}
	var scClean bio.SimScratch
	clean := Run(sys, plan, sim, members[:5], days, &scClean, nil)
	redClean, err := Reduce(clean, days, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for tt := range red.Bands[0] {
		if math.Float64bits(red.Bands[0][tt]) != math.Float64bits(redClean.Bands[0][tt]) {
			t.Fatalf("day %d: quarantined member leaked into the band", tt)
		}
	}
}

// TestReduceQuantiles checks the order statistics on hand-built
// trajectories: 4 constant members 1..4.
func TestReduceQuantiles(t *testing.T) {
	run := &RunResult{Preds: [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}}
	red, err := Reduce(run, 2, []float64{0.5, 0.25, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if got := red.Quantiles; got[0] != 0.25 || got[1] != 0.5 || got[2] != 0.95 {
		t.Fatalf("quantiles not sorted: %v", got)
	}
	// Type-7: h=q*(n-1) over {1,2,3,4}.
	want := []float64{1.75, 2.5, 3.85}
	for i, w := range want {
		for tt := 0; tt < 2; tt++ {
			if math.Abs(red.Bands[i][tt]-w) > 1e-12 {
				t.Fatalf("q=%v day %d: %v, want %v", red.Quantiles[i], tt, red.Bands[i][tt], w)
			}
		}
	}
	if red.Mean[0] != 2.5 {
		t.Fatalf("mean %v", red.Mean[0])
	}
	if math.Abs(red.Spread[0]-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("spread %v", red.Spread[0])
	}
}

func TestReduceRejectsBadInput(t *testing.T) {
	run := &RunResult{Preds: [][]float64{{1}}}
	if _, err := Reduce(run, 1, []float64{0}); err == nil {
		t.Fatal("accepted q=0")
	}
	if _, err := Reduce(run, 1, []float64{1}); err == nil {
		t.Fatal("accepted q=1")
	}
	empty := &RunResult{Preds: [][]float64{{}}}
	if _, err := Reduce(empty, 1, []float64{0.5}); err == nil {
		t.Fatal("accepted a fully quarantined ensemble")
	}
}
