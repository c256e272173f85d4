package evalx

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gmr/internal/expr"
)

// Tests for the lane-batched EvaluateParamBatch path (DESIGN.md §11):
// short-circuit engagement inside batches, lane telemetry counters, and
// fault-injection parity with sequential evaluation.

// TestLaneBatchShortCircuits commits a short-circuit reference and checks
// that a parameter batch actually triggers Algorithm 1 early stops on the
// lane path — the counters that were dormant before this path existed.
func TestLaneBatchShortCircuits(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	opts := Options{UseCache: true, UseCompile: true, UseShortCircuit: true, Sim: simCfg(obs)}
	ev := New(forcing, obs, consts, opts)
	// A committed reference far below any reachable RMSE forces every
	// member's running RMSE above it as soon as minFrac of the cases are in.
	ev.SetShortCircuitRef(1e-9)

	rng := rand.New(rand.NewSource(41))
	paramSets := make([][]float64, 11)
	for i := range paramSets {
		paramSets[i] = jitterParams(rng, ind.Params)
	}
	ev.BeginBatch()
	out := proposals(ind, paramSets)
	ev.EvaluateParamBatch(out)
	ev.EndBatch()

	for i, r := range out {
		if r.FullEval {
			t.Fatalf("member %d ran fully; want short-circuited against the tiny reference", i)
		}
		if math.IsInf(r.Fitness, 1) || math.IsNaN(r.Fitness) {
			t.Fatalf("member %d surrogate fitness = %v; want a finite extrapolation", i, r.Fitness)
		}
	}
	st := ev.Stats()
	if st.ShortCircuits != len(paramSets) {
		t.Fatalf("ShortCircuits = %d, want %d", st.ShortCircuits, len(paramSets))
	}
	if st.LaneShortCircuits != len(paramSets) {
		t.Fatalf("LaneShortCircuits = %d, want %d", st.LaneShortCircuits, len(paramSets))
	}
	if st.StepsEvaluated >= st.StepsPossible {
		t.Fatalf("short-circuiting saved no steps: %d/%d", st.StepsEvaluated, st.StepsPossible)
	}
}

// TestLaneCountersInSnapshot: the lane telemetry flows through Stats and
// its JSON record with the documented names, and counts only lane
// launches: a one-member chunk runs the scalar loop and is not one.
func TestLaneCountersInSnapshot(t *testing.T) {
	forcing, obs, consts := smallData(t)
	ind, _ := manualInd(t)
	for _, tc := range []struct {
		name             string
		members          int
		launches, filled int
	}{
		{"full+partial", expr.Lanes + 3, 2, expr.Lanes + 3},
		{"full+one", expr.Lanes + 1, 1, expr.Lanes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := New(forcing, obs, consts, Options{UseCache: true, UseCompile: true, Sim: simCfg(obs)})
			rng := rand.New(rand.NewSource(43))
			paramSets := make([][]float64, tc.members)
			for i := range paramSets {
				paramSets[i] = jitterParams(rng, ind.Params)
			}
			ev.BeginBatch()
			ev.EvaluateParamBatch(proposals(ind, paramSets))
			ev.EndBatch()

			st := ev.Stats()
			if st.LaneBatches != tc.launches {
				t.Fatalf("LaneBatches = %d, want %d for %d members", st.LaneBatches, tc.launches, tc.members)
			}
			if st.LanesFilled != tc.filled {
				t.Fatalf("LanesFilled = %d, want %d", st.LanesFilled, tc.filled)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{
				fmt.Sprintf(`"lane_batches":%d`, tc.launches),
				fmt.Sprintf(`"lanes_filled":%d`, tc.filled),
				`"lane_short_circuits":0`,
			} {
				if !strings.Contains(string(b), field) {
					t.Fatalf("snapshot JSON missing %s: %s", field, b)
				}
			}
		})
	}
}

// TestLaneBatchMatchesSequentialUnderFaults: injected NaN poisons must hit
// the same members with the same outcomes on the lane path as under
// sequential evaluation — the site hash depends only on the (structure,
// params) key, not on the execution mode.
func TestLaneBatchMatchesSequentialUnderFaults(t *testing.T) {
	forcing, obs, consts := smallData(t)
	_, g := manualInd(t)
	spec := "seed=7,nan:0.5"

	rng := rand.New(rand.NewSource(47))
	for si := 0; si < 4; si++ {
		ind := randomInd(t, g, int64(300+si))
		paramSets := make([][]float64, 10)
		for i := range paramSets {
			paramSets[i] = jitterParams(rng, ind.Params)
		}

		seqEv := New(forcing, obs, consts, faultOpts(t, obs, spec))
		seqEv.BeginBatch()
		want := proposals(ind, paramSets)
		for _, c := range want {
			seqEv.Evaluate(c)
		}
		seqEv.EndBatch()

		batchEv := New(forcing, obs, consts, faultOpts(t, obs, spec))
		batchEv.BeginBatch()
		got := proposals(ind, paramSets)
		batchEv.EvaluateParamBatch(got)
		batchEv.EndBatch()

		sameFitness(t, fmt.Sprintf("structure %d under %q", si, spec), got, want)
		if a, b := seqEv.Stats(), batchEv.Stats(); a.QuarNaN != b.QuarNaN {
			t.Fatalf("structure %d: quarantine counts diverged: sequential %d batch %d", si, a.QuarNaN, b.QuarNaN)
		}
	}
}
