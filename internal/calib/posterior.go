package calib

// Posterior retention (DESIGN.md §15): DREAM optionally records
// post-burn-in chain states into a bounded, deterministic reservoir so a
// calibration run yields not just a point estimate but a parameter
// ensemble for uncertainty forecasting.
//
// Two hard constraints shape the recorder:
//
//   - RNG-stream neutrality: recording must not consume randomness, so a
//     calibration with retention enabled follows the exact trajectory — and
//     returns the bitwise-identical optimum — of the same run without it.
//     The reservoir is therefore thinned deterministically (doubling
//     stride), never sampled.
//   - Bounded memory: the retained set never exceeds the configured
//     capacity regardless of budget, and the thinning keeps roughly even
//     coverage of the post-burn-in chain history instead of only its tail.

// Posterior is a bounded sample of post-burn-in parameter states retained
// from an MCMC calibration. Samples are in retention order (chain-sweep
// order thinned by Stride), each a full parameter vector.
type Posterior struct {
	// Dim is the parameter dimension (0 until the first state is offered).
	Dim int
	// Samples are the retained states. len(Samples) ≤ the recorder capacity.
	Samples [][]float64
	// Seen counts the states offered after burn-in (retained or not).
	Seen int
	// Skipped counts the states discarded as burn-in.
	Skipped int
	// Stride is the final thinning stride: one state retained per Stride
	// offered. Grows by doubling as the reservoir fills.
	Stride int
}

// PosteriorRecorder accumulates a deterministic thinned reservoir of chain
// states. The zero recorder and a nil recorder are both inert: Record is
// nil-safe, so calibrators thread an optional *PosteriorRecorder with no
// branching at call sites. Not safe for concurrent use (calibrators are
// single-goroutine).
type PosteriorRecorder struct {
	cap     int
	burn    int
	stride  int
	offered int // post-burn-in offers so far
	skipped int
	samples [][]float64
}

// NewPosteriorRecorder builds a recorder that skips the first burn offered
// states and retains at most capacity thereafter. capacity < 2 is clamped
// to 2 (compaction halves the reservoir, so it needs room to shrink);
// burn < 0 is clamped to 0.
func NewPosteriorRecorder(capacity, burn int) *PosteriorRecorder {
	if capacity < 2 {
		capacity = 2
	}
	if burn < 0 {
		burn = 0
	}
	return &PosteriorRecorder{cap: capacity, burn: burn, stride: 1}
}

// Record offers one chain state. The state is copied, so callers may reuse
// the slice. Nil-safe: calibrators call it unconditionally.
//
// Retention is a doubling-stride reservoir: every stride-th offered state
// is kept; when the reservoir is full, every other retained sample is
// dropped (keeping the even positions) and the stride doubles. The result
// covers the whole post-burn-in history at a spacing within 2× of optimal,
// with no randomness consumed.
func (r *PosteriorRecorder) Record(x []float64) {
	if r == nil {
		return
	}
	if r.skipped < r.burn {
		r.skipped++
		return
	}
	if r.offered%r.stride == 0 {
		if len(r.samples) == r.cap {
			// Compact: keep even positions, double the stride. The current
			// offer lands on the new stride grid iff it landed on position
			// cap of the halved reservoir — re-test below.
			kept := r.samples[:0]
			for i := 0; i < len(r.samples); i += 2 {
				kept = append(kept, r.samples[i])
			}
			r.samples = kept
			r.stride *= 2
			if r.offered%r.stride == 0 {
				r.samples = append(r.samples, append([]float64(nil), x...))
			}
		} else {
			r.samples = append(r.samples, append([]float64(nil), x...))
		}
	}
	r.offered++
}

// Len returns the number of retained samples. Nil-safe.
func (r *PosteriorRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.samples)
}

// Posterior packages the retained states. The returned slices alias the
// recorder's storage; callers that keep recording should copy. Nil-safe
// (returns nil).
func (r *PosteriorRecorder) Posterior() *Posterior {
	if r == nil {
		return nil
	}
	dim := 0
	if len(r.samples) > 0 {
		dim = len(r.samples[0])
	}
	return &Posterior{
		Dim:     dim,
		Samples: r.samples,
		Seen:    r.offered,
		Skipped: r.skipped,
		Stride:  r.stride,
	}
}
