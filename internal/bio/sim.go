package bio

import (
	"math"

	"gmr/internal/expr"
)

// System is the interpreted form of a biological process: its two bound
// derivative trees, walked node by node every substep. It is the Fig 10
// "no runtime compilation" baseline and the reference oracle the compiled
// SegSystem (seg.go) is differentially tested against. Evaluation never
// mutates the trees, so a System is safe for concurrent use with
// per-goroutine SimScratch.
type System struct {
	Phy *expr.Node // dBPhy/dt
	Zoo *expr.Node // dBZoo/dt
}

// NewTreeSystem wraps both bound derivative trees in the interpreter.
func NewTreeSystem(phy, zoo *expr.Node) *System {
	return &System{Phy: phy, Zoo: zoo}
}

// evalRHS evaluates one derivative tree, mapping any evaluation error to NaN
// so invalid models lose rather than abort the run.
func evalRHS(n *expr.Node, env *expr.Env) float64 {
	v, err := n.Eval(env)
	if err != nil {
		return math.NaN()
	}
	return v
}

// SimConfig controls forward integration of a System.
type SimConfig struct {
	// SubSteps is the number of forward-Euler substeps per day; the
	// zero value means 4 (Δt = 0.25 d), which keeps the manual process
	// stable across the Table III parameter box.
	SubSteps int
	// Phy0 and Zoo0 are the initial biomasses.
	Phy0, Zoo0 float64
	// ClampMin and ClampMax bound both state variables after every
	// substep, preventing runaway growth of hostile revisions.
	//
	// Sentinel semantics: the zero value means "use the default"
	// (ClampMin 1e-3, ClampMax 1e5) — an *explicit* bound of exactly 0
	// cannot be expressed this way. To disable a bound, set it negative
	// (negative-means-disabled: the bound becomes ∓Inf), or set
	// ClampDisabled to turn off clamping entirely. An explicit zero
	// floor is therefore spelled ClampMin: -1 (no floor) or any tiny
	// positive value.
	ClampMin, ClampMax float64
	// ClampDisabled turns off biomass clamping entirely, overriding
	// ClampMin/ClampMax. This is the escape hatch for workloads (e.g.
	// generic ODE revision outside the river domain) where state may
	// legitimately be zero or negative.
	ClampDisabled bool
}

func (c SimConfig) withDefaults() SimConfig {
	if c.SubSteps <= 0 {
		c.SubSteps = 4
	}
	if c.ClampDisabled {
		c.ClampMin, c.ClampMax = math.Inf(-1), math.Inf(1)
		return c
	}
	switch {
	case c.ClampMin == 0:
		c.ClampMin = 1e-3 // documented sentinel: zero means default
	case c.ClampMin < 0:
		c.ClampMin = math.Inf(-1) // negative means no floor
	}
	switch {
	case c.ClampMax == 0:
		c.ClampMax = 1e5
	case c.ClampMax < 0:
		c.ClampMax = math.Inf(1) // negative means no cap
	}
	return c
}

// SimScratch holds the per-goroutine buffers reused across integration
// runs: the state/forcing scratch row, the register file, and the
// prediction buffer. The zero value is ready to use; buffers grow on
// first use and are reused afterwards, making repeated Run calls
// allocation-free. A SimScratch must not be shared between concurrent
// runs.
type SimScratch struct {
	vars  []float64
	preds []float64
	regs  []float64 // register file for the segmented VM (see seg.go)

	// Lane-batched path (see lanes.go): the lane-major register file and
	// state vector, plus the per-lane parameter-vector table reused by
	// PrologueLanes so steady-state lane batches allocate nothing.
	regsLanes  []float64
	varsLanes  []float64
	paramLanes [expr.Lanes][]float64

	// LaneDrops counts lane compactions performed by KernelLanes: members
	// swapped out mid-launch because they aborted (non-finite state) or
	// were stopped by their hook (short circuit). It accumulates across
	// launches that reuse this scratch; callers snapshot before/after a
	// launch to attribute drops. A plain int — a SimScratch is owned by
	// one goroutine at a time.
	LaneDrops int
}

func growBuf(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// Run integrates the system over the forcing series. forcing[t] is a
// variable vector of length NumVars whose temporal columns hold the day-t
// measurements; its state columns are ignored (the simulator tracks state
// itself) and the caller's rows are never mutated.
//
// After integrating each day, perStep is called with the day index and the
// predicted phytoplankton biomass; returning false stops the run early
// (this is the hook used by evaluation short-circuiting). perStep may be
// nil. Run returns the predictions for the days it integrated, one per
// forcing row unless stopped early.
//
// If the state ever becomes non-finite (NaN or ±Inf) the run stops, the
// prediction for that day is NaN (which downstream metrics score as +Inf
// error), and perStep is called one final time with the offending value so
// the caller can classify the failure (see evalx's numeric quarantine).
func (s *System) Run(forcing [][]float64, params []float64, cfg SimConfig, perStep func(t int, bphy float64) bool) []float64 {
	return s.RunBuf(forcing, params, cfg, &SimScratch{}, perStep)
}

// RunBuf is Run with caller-supplied scratch buffers: the forcing scratch
// row and the prediction slice are taken from sc instead of being
// allocated, so a reused SimScratch makes repeated runs allocation-free.
// The returned prediction slice aliases sc and is valid until the next run
// with the same scratch.
func (s *System) RunBuf(forcing [][]float64, params []float64, cfg SimConfig, sc *SimScratch, perStep func(t int, bphy float64) bool) []float64 {
	cfg = cfg.withDefaults()
	preds := sc.preds[:0]
	bphy, bzoo := cfg.Phy0, cfg.Zoo0
	sc.vars = growBuf(sc.vars, NumVars)
	scratch := sc.vars
	env := &expr.Env{Vars: scratch, Params: params}
	h := 1.0 / float64(cfg.SubSteps)
	for t, row := range forcing {
		copy(scratch, row)
		for step := 0; step < cfg.SubSteps; step++ {
			scratch[IdxBPhy] = bphy
			scratch[IdxBZoo] = bzoo
			dPhy := evalRHS(s.Phy, env)
			dZoo := evalRHS(s.Zoo, env)
			bphy += h * dPhy
			bzoo += h * dZoo
			if bad, abort := nonFinite(bphy, bzoo); abort {
				preds = append(preds, math.NaN())
				sc.preds = preds
				if perStep != nil {
					perStep(t, bad)
				}
				return preds
			}
			bphy = clamp(bphy, cfg.ClampMin, cfg.ClampMax)
			bzoo = clamp(bzoo, cfg.ClampMin, cfg.ClampMax)
		}
		preds = append(preds, bphy)
		if perStep != nil && !perStep(t, bphy) {
			sc.preds = preds
			return preds
		}
	}
	sc.preds = preds
	return preds
}

// Predict is Run without the per-step hook.
func (s *System) Predict(forcing [][]float64, params []float64, cfg SimConfig) []float64 {
	return s.Run(forcing, params, cfg, nil)
}

// nonFinite reports whether either state variable has gone NaN or ±Inf and
// returns the first offending value. The simulator aborts the run on a
// non-finite state and reports the value through the perStep hook, so the
// evaluator's numeric quarantine can classify the failure (NaN poison vs
// overflow) instead of receiving silent truncation. Note that ±Inf can
// only persist past a substep when clamping is disabled or unbounded;
// under the default clamps overflow saturates at ClampMax instead.
func nonFinite(bphy, bzoo float64) (bad float64, abort bool) {
	if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
		return bphy, true
	}
	if math.IsNaN(bzoo) || math.IsInf(bzoo, 0) {
		return bzoo, true
	}
	return 0, false
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
