package calib

import (
	"math"
	"math/rand"
	"testing"
)

// sphereBatch is a cheap deterministic batch objective for sampler tests.
func sphereBatch(params [][]float64, out []float64) []float64 {
	for _, x := range params {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		out = append(out, s)
	}
	return out
}

func TestPosteriorRecorderBoundedAndDeterministic(t *testing.T) {
	const capacity, burn, offers = 16, 10, 1000
	rec := NewPosteriorRecorder(capacity, burn)
	for i := 0; i < offers; i++ {
		rec.Record([]float64{float64(i)})
	}
	p := rec.Posterior()
	if p.Skipped != burn {
		t.Fatalf("skipped %d, want %d", p.Skipped, burn)
	}
	if p.Seen != offers-burn {
		t.Fatalf("seen %d, want %d", p.Seen, offers-burn)
	}
	if len(p.Samples) > capacity || len(p.Samples) < capacity/2 {
		t.Fatalf("retained %d samples, want in [%d,%d]", len(p.Samples), capacity/2, capacity)
	}
	// Retained states are exactly the stride grid over post-burn-in offers:
	// offer j is retained iff j%stride == 0 (offers are the value minus burn).
	for i, s := range p.Samples {
		want := float64(burn + i*p.Stride)
		if s[0] != want {
			t.Fatalf("sample %d = %v, want %v (stride %d)", i, s[0], want, p.Stride)
		}
	}
	// Same offers ⇒ same retention, bitwise.
	rec2 := NewPosteriorRecorder(capacity, burn)
	for i := 0; i < offers; i++ {
		rec2.Record([]float64{float64(i)})
	}
	p2 := rec2.Posterior()
	if len(p2.Samples) != len(p.Samples) || p2.Stride != p.Stride {
		t.Fatalf("replay diverged: %d/%d vs %d/%d samples/stride",
			len(p2.Samples), p2.Stride, len(p.Samples), p.Stride)
	}
	for i := range p.Samples {
		if p.Samples[i][0] != p2.Samples[i][0] {
			t.Fatalf("replay sample %d differs", i)
		}
	}
}

func TestPosteriorRecorderNilSafe(t *testing.T) {
	var rec *PosteriorRecorder
	rec.Record([]float64{1}) // must not panic
	if rec.Len() != 0 || rec.Posterior() != nil {
		t.Fatal("nil recorder is not inert")
	}
}

func TestPosteriorRecorderCopiesStates(t *testing.T) {
	rec := NewPosteriorRecorder(4, 0)
	x := []float64{1, 2}
	rec.Record(x)
	x[0] = 99
	if got := rec.Posterior().Samples[0][0]; got != 1 {
		t.Fatalf("recorder aliased the caller's slice: %v", got)
	}
}

// TestPosteriorRecordingRNGNeutral pins the tentpole invariant: enabling
// retention must not perturb the calibration trajectory. DREAM under the
// same seed returns the bitwise-identical optimum with and without a
// recorder attached.
func TestPosteriorRecordingRNGNeutral(t *testing.T) {
	lo := []float64{-2, -2, -2}
	hi := []float64{2, 2, 2}
	const budget = 600

	t.Run("DREAM", func(t *testing.T) {
		plain := NewDREAM()
		x1, f1 := plain.Calibrate(sphereBatch, lo, hi, budget, rand.New(rand.NewSource(42)))

		rec := NewPosteriorRecorder(32, budget/2)
		traced := NewDREAM()
		traced.Record = rec
		x2, f2 := traced.Calibrate(sphereBatch, lo, hi, budget, rand.New(rand.NewSource(42)))

		if math.Float64bits(f1) != math.Float64bits(f2) {
			t.Fatalf("best objective differs: %v vs %v", f1, f2)
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("best point differs at %d: %v vs %v", i, x1[i], x2[i])
			}
		}
		if rec.Len() == 0 {
			t.Fatal("recorder retained nothing")
		}
		p := rec.Posterior()
		if p.Dim != len(lo) {
			t.Fatalf("posterior dim %d, want %d", p.Dim, len(lo))
		}
		for _, s := range p.Samples {
			for j, v := range s {
				if math.IsNaN(v) || v < lo[j] || v > hi[j] {
					t.Fatalf("retained state outside the box: %v", s)
				}
			}
		}
	})
}

// TestPosteriorDREAMConverges sanity-checks that the retained ensemble
// concentrates near the optimum on an easy objective: the mean retained
// distance must beat a uniform-box draw by a wide margin.
func TestPosteriorDREAMConverges(t *testing.T) {
	lo := []float64{-5, -5}
	hi := []float64{5, 5}
	dr := NewDREAM()
	dr.Record = NewPosteriorRecorder(64, 1500)
	dr.Calibrate(sphereBatch, lo, hi, 3000, rand.New(rand.NewSource(1)))
	p := dr.Record.Posterior()
	if len(p.Samples) == 0 {
		t.Fatal("no retained samples")
	}
	mean := 0.0
	for _, s := range p.Samples {
		mean += math.Sqrt(s[0]*s[0] + s[1]*s[1])
	}
	mean /= float64(len(p.Samples))
	// Uniform over the box would average ≈ 3.8; demand clearly better.
	if mean > 2.0 {
		t.Fatalf("posterior not concentrated: mean distance %.3f", mean)
	}
}
