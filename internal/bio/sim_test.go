package bio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gmr/internal/expr"
)

// decaySystem builds dBPhy/dt = -BPhy, dBZoo/dt = -BZoo: a process whose
// state decays geometrically toward zero, crossing any positive floor.
func decaySystem(t *testing.T) *System {
	t.Helper()
	phy := expr.Neg(expr.NewVar("BPhy"))
	zoo := expr.Neg(expr.NewVar("BZoo"))
	if err := expr.Bind(phy, VarIndex(), map[string]int{}); err != nil {
		t.Fatal(err)
	}
	if err := expr.Bind(zoo, VarIndex(), map[string]int{}); err != nil {
		t.Fatal(err)
	}
	return NewTreeSystem(phy, zoo)
}

func flatForcing(days int) [][]float64 {
	f := make([][]float64, days)
	for d := range f {
		f[d] = make([]float64, NumVars)
	}
	return f
}

// TestClampSentinels pins down the SimConfig clamp semantics: the zero
// value is a sentinel for the defaults (so an explicit zero floor is not
// expressible as 0), and negative bounds disable that bound; both negative
// switch clamping off entirely.
func TestClampSentinels(t *testing.T) {
	sys := decaySystem(t)
	forcing := flatForcing(40)

	// Zero-value config: the documented sentinel applies the 1e-3 floor.
	preds := sys.Predict(forcing, nil, SimConfig{Phy0: 1, Zoo0: 1})
	last := preds[len(preds)-1]
	if last != 1e-3 {
		t.Errorf("default floor: final state %v, want clamped to 1e-3", last)
	}

	// Negative ClampMin means "no floor": decay continues below 1e-3.
	preds = sys.Predict(forcing, nil, SimConfig{Phy0: 1, Zoo0: 1, ClampMin: -1})
	last = preds[len(preds)-1]
	if !(last > 0 && last < 1e-3) {
		t.Errorf("negative ClampMin: final state %v, want positive and below 1e-3", last)
	}

	// Both bounds negative turn clamping off.
	unclamped := SimConfig{Phy0: 1, Zoo0: 1, ClampMin: -1, ClampMax: -1}
	preds = sys.Predict(forcing, nil, unclamped)
	last = preds[len(preds)-1]
	if !(last > 0 && last < 1e-3) {
		t.Errorf("unclamped: final state %v, want positive and below 1e-3", last)
	}

	// Unclamped, a process may legitimately go negative (dB/dt = -1 from
	// a small start), which the default floor forbids.
	neg := expr.NewLit(-1.0)
	zero := expr.NewLit(0.0)
	sysNeg := NewTreeSystem(neg, zero)
	preds = sysNeg.Predict(flatForcing(5), nil, SimConfig{Phy0: 0.5, Zoo0: 1, ClampMin: -1, ClampMax: -1})
	if preds[len(preds)-1] >= 0 {
		t.Errorf("unclamped: state %v, want negative", preds[len(preds)-1])
	}
	preds = sysNeg.Predict(flatForcing(5), nil, SimConfig{Phy0: 0.5, Zoo0: 1})
	if preds[len(preds)-1] != 1e-3 {
		t.Errorf("default config: state %v, want floored at 1e-3", preds[len(preds)-1])
	}

	// Negative ClampMax disables the cap.
	grow := expr.NewVar("BPhy")
	if err := expr.Bind(grow, VarIndex(), map[string]int{}); err != nil {
		t.Fatal(err)
	}
	sysGrow := NewTreeSystem(grow, zero)
	preds = sysGrow.Predict(flatForcing(80), nil, SimConfig{Phy0: 10, Zoo0: 1, ClampMax: -1})
	if last = preds[len(preds)-1]; last <= 1e5 {
		t.Errorf("negative ClampMax: final state %v, want above the 1e5 default cap", last)
	}

	// Unclamped, dB/dt = B² overflows: the run aborts on the non-finite
	// state and records it as a NaN prediction (evalx quarantines it as
	// ReasonInf). The default cap keeps the same process finite.
	sq := expr.Mul(expr.NewVar("BPhy"), expr.NewVar("BPhy"))
	if err := expr.Bind(sq, VarIndex(), map[string]int{}); err != nil {
		t.Fatal(err)
	}
	sysSq := NewTreeSystem(sq, zero)
	var aborted float64
	preds = sysSq.Run(flatForcing(80), nil, SimConfig{Phy0: 10, Zoo0: 1, ClampMin: -1, ClampMax: -1}, func(_ int, bphy float64) bool {
		aborted = bphy
		return true
	})
	if len(preds) == 80 || !math.IsNaN(preds[len(preds)-1]) || !math.IsInf(aborted, 1) {
		t.Errorf("unclamped B²: %d days, last prediction %v, last hook value %v; want an early abort on +Inf",
			len(preds), preds[len(preds)-1], aborted)
	}
	preds = sysSq.Predict(flatForcing(80), nil, SimConfig{Phy0: 10, Zoo0: 1})
	if len(preds) != 80 || preds[len(preds)-1] != 1e5 {
		t.Errorf("default cap on B²: %d days, final state %v; want 80 days capped at 1e5", len(preds), preds[len(preds)-1])
	}
}

// manualWorkload builds the manual process with a year of varied forcing.
func manualWorkload(t testing.TB) (phy, zoo *expr.Node, params []float64, forcing [][]float64) {
	phy, zoo, consts, err := ManualSystem()
	if err != nil {
		t.Fatal(err)
	}
	params = Means(consts)
	rng := rand.New(rand.NewSource(7))
	vi := VarIndex()
	forcing = make([][]float64, 200)
	for d := range forcing {
		row := make([]float64, NumVars)
		row[vi["Vtmp"]] = 5 + 20*rng.Float64()
		row[vi["Vlgt"]] = 5 + 25*rng.Float64()
		row[vi["Vn"]] = 1 + 2*rng.Float64()
		row[vi["Vp"]] = 0.05 + 0.1*rng.Float64()
		row[vi["Vsi"]] = 1 + rng.Float64()
		forcing[d] = row
	}
	return phy, zoo, params, forcing
}

// TestRunBufReusesScratch checks the caller-supplied-buffer System variant:
// identical trajectory to Run, and allocation-free once warm.
func TestRunBufReusesScratch(t *testing.T) {
	phy, zoo, params, forcing := manualWorkload(t)
	sys := NewTreeSystem(phy, zoo)
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	want := sys.Run(forcing, params, cfg, nil)
	var sc SimScratch
	var got []float64
	sys.RunBuf(forcing, params, cfg, &sc, func(_ int, bphy float64) bool {
		got = append(got, bphy)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("RunBuf reported %d days, Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("day %d: RunBuf %v != Run %v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		sys.RunBuf(forcing, params, cfg, &sc, nil)
	})
	if allocs > 0 {
		t.Errorf("RunBuf with warm scratch allocated %v times per run, want 0", allocs)
	}
}

// TestSegSystemConcurrent runs one SegSystem and one shared exogenous plan
// from many goroutines, each with its own scratch; results must all agree
// (run under -race this guards the immutability contract the evaluator's
// structure cache relies on).
func TestSegSystemConcurrent(t *testing.T) {
	phy, zoo, params, forcing := manualWorkload(t)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	want := seg.Predict(forcing, params, cfg)
	plan := seg.NewExogPlan(forcing)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var sc SimScratch
			for r := 0; r < 20; r++ {
				bad := -1
				seg.KernelLanes(plan, cfg, &sc, [][]float64{params}, func(_, t int, bphy float64) bool {
					if bphy != want[t] && bad < 0 {
						bad = t
					}
					return true
				}, nil)
				if bad >= 0 {
					errs <- fmt.Errorf("concurrent trajectory mismatch at day %d", bad)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
