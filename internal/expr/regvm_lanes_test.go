package expr

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the lane-batched SoA execution mode
// (regvm_lanes.go): each lane of a lane-major execution must reproduce the
// scalar segmented execution of the same program with that lane's
// parameter vector, bitwise.

// laneVars spreads a scalar vars vector across all lanes of a lane-strided
// state vector, with per-lane state values for the state indices.
func laneVars(vars []float64, stateVals [Lanes][2]float64) []float64 {
	lv := make([]float64, len(vars)*Lanes)
	for idx, v := range vars {
		for l := 0; l < Lanes; l++ {
			lv[idx*Lanes+l] = v
		}
	}
	for l := 0; l < Lanes; l++ {
		lv[2*Lanes+l] = stateVals[l][0] // BPhy
		lv[3*Lanes+l] = stateVals[l][1] // BZoo
	}
	return lv
}

// TestLaneExecMatchesScalarSegments: random trees × random parameter
// vectors per lane × random state trajectories; the full segmented
// pipeline (consts → exog plan row → param prologue → day → step) must
// agree bitwise lane-by-lane with the scalar EvalOnce.
func TestLaneExecMatchesScalarSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for tree := 0; tree < 300; tree++ {
		n := randTree(rng, 5)
		if err := Bind(n, testVarIdx, testParamIdx); err != nil {
			t.Fatalf("Bind(%s): %v", n, err)
		}
		rp, err := CompileReg([]*Node{n}, testIsState)
		if err != nil {
			t.Fatalf("CompileReg(%s): %v", n, err)
		}

		// One shared forcing row, hoisted the same way the simulator does.
		row := []float64{-5 + 10*rng.Float64(), -5 + 10*rng.Float64(), 0, 0}
		k := rp.ExogWidth()
		plan := make([]float64, k)
		scratch := make([]float64, rp.NumRegs())
		rp.EvalExog([][]float64{row}, scratch, plan)

		// Per-lane parameters and state.
		var params [Lanes][]float64
		var state [Lanes][2]float64
		for l := 0; l < Lanes; l++ {
			params[l] = []float64{-5 + 10*rng.Float64(), -5 + 10*rng.Float64()}
			state[l] = [2]float64{-5 + 10*rng.Float64(), -5 + 10*rng.Float64()}
		}

		laneRegs := make([]float64, rp.LaneRegs())
		rp.EvalParamLanes(&params, laneRegs)
		rp.LoadExogRowLanes(plan, laneRegs)
		rp.EvalDayLanes(laneRegs)
		lv := laneVars(row, state)
		rp.EvalStepLanes(lv, laneRegs)

		regs := make([]float64, rp.NumRegs())
		vars := make([]float64, 4)
		for l := 0; l < Lanes; l++ {
			copy(vars, row)
			vars[2], vars[3] = state[l][0], state[l][1]
			want := rp.EvalOnce(vars, params[l], regs)
			got := rp.RootLane(0, l, laneRegs)
			if !sameBits(want, got) {
				t.Fatalf("tree %s lane %d: lane %v (%#x) != scalar %v (%#x)",
					n, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestCopyLaneMovesWholeColumn: after compaction, the destination lane
// must reproduce the source lane's registers exactly and later execution
// must keep the copied lane bitwise in sync with an uncompacted run of the
// same parameters.
func TestCopyLaneMovesWholeColumn(t *testing.T) {
	n := MustParse("BPhy*C1*(V1/(V1+C2)) - BZoo*min(V2, C2, BPhy) + log(V1*V2)")
	if err := Bind(n, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	rp, err := CompileReg([]*Node{n}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var params [Lanes][]float64
	for l := 0; l < Lanes; l++ {
		params[l] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	laneRegs := make([]float64, rp.LaneRegs())
	rp.EvalParamLanes(&params, laneRegs)

	// Compact lane 7 into lane 2, then run a step: lane 2 must now track
	// lane 7's scalar execution.
	rp.CopyLane(2, 7, laneRegs)
	row := []float64{1.25, -0.5, 0, 0}
	k := rp.ExogWidth()
	plan := make([]float64, k)
	scratch := make([]float64, rp.NumRegs())
	rp.EvalExog([][]float64{row}, scratch, plan)
	rp.LoadExogRowLanes(plan, laneRegs)
	rp.EvalDayLanes(laneRegs)
	var state [Lanes][2]float64
	for l := range state {
		state[l] = [2]float64{1.5, 0.5}
	}
	rp.EvalStepLanes(laneVars(row, state), laneRegs)

	regs := make([]float64, rp.NumRegs())
	vars := []float64{1.25, -0.5, 1.5, 0.5}
	if want, got := rp.EvalOnce(vars, params[7], regs), rp.RootLane(0, 2, laneRegs); !sameBits(want, got) {
		t.Fatalf("compacted lane 2 %v != lane-7 scalar %v", got, want)
	}
}

// TestLaneRegsSize pins the lane register file size contract.
func TestLaneRegsSize(t *testing.T) {
	n := MustParse("V1 + C1*BPhy")
	if err := Bind(n, testVarIdx, testParamIdx); err != nil {
		t.Fatal(err)
	}
	rp, err := CompileReg([]*Node{n}, testIsState)
	if err != nil {
		t.Fatal(err)
	}
	if rp.LaneRegs() != rp.NumRegs()*Lanes {
		t.Fatalf("LaneRegs %d != NumRegs %d × Lanes %d", rp.LaneRegs(), rp.NumRegs(), Lanes)
	}
}
