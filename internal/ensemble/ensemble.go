// Package ensemble simulates a posterior ensemble of parameter vectors
// through one compiled model structure and reduces the member trajectories
// to per-day uncertainty bands (DESIGN.md §15).
//
// The execution path is the 8-lane SoA kernel (DESIGN.md §11): ensemble
// members are exactly the kernel's per-lane PARAM dimension, so M members
// cost ⌈M/expr.Lanes⌉ kernel launches over one shared exogenous plan. Serve
// runs both of its cohort kinds through Run: a point cohort is the
// ensemble of its concurrent requests' parameter vectors. Member order is deterministic (input order), lane
// arithmetic is elementwise, and compaction never perturbs surviving
// lanes, so a fixed (structure, plan, members) triple reduces to bitwise
// identical bands regardless of chunking or concurrency around it.
//
// Members whose state goes non-finite mid-window are quarantined with the
// evalx reason vocabulary ("nan"/"inf") and excluded from the reduction:
// a diverged trajectory says the parameter draw left the model's stable
// region, not that the river will hold an infinite biomass.
package ensemble

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gmr/internal/bio"
)

// MemberFault records one quarantined ensemble member: its index in the
// input order, why it died ("nan" or "inf"), and the day it died.
type MemberFault struct {
	Member int    `json:"member"`
	Reason string `json:"reason"`
	Day    int    `json:"day"`
}

// RunResult holds the raw member trajectories of one ensemble run.
type RunResult struct {
	// Preds[i] is member i's per-day biomass; quarantined members hold the
	// finite prefix up to the day they died.
	Preds [][]float64
	// Faults lists quarantined members in member order.
	Faults []MemberFault
}

// Run simulates every member through sys over the plan's window, lane-
// batched in chunks of expr.Lanes in input order. days must match the
// plan's day count; sc is the reusable kernel scratch (pass a fresh one
// for concurrent runs); onLaunch, when non-nil, observes each kernel
// launch (see bio.SegSystem.KernelLanes). The result is bitwise
// deterministic for fixed (sys, plan, sim, members).
func Run(sys *bio.SegSystem, plan *bio.ExogPlan, sim bio.SimConfig, members [][]float64, days int, sc *bio.SimScratch, onLaunch func(n int, start time.Time, d time.Duration)) *RunResult {
	res := &RunResult{Preds: make([][]float64, len(members))}
	for i := range res.Preds {
		res.Preds[i] = make([]float64, 0, days)
	}
	sys.KernelLanes(plan, sim, sc, members, func(m, t int, bphy float64) bool {
		if math.IsNaN(bphy) || math.IsInf(bphy, 0) {
			reason := "inf"
			if math.IsNaN(bphy) {
				reason = "nan"
			}
			res.Faults = append(res.Faults, MemberFault{Member: m, Reason: reason, Day: t})
			return false
		}
		res.Preds[m] = append(res.Preds[m], bphy)
		return true
	}, onLaunch)
	// Lane compaction interleaves fault callbacks across members within a
	// launch; report them in member order so the result is order-canonical.
	sort.Slice(res.Faults, func(i, j int) bool { return res.Faults[i].Member < res.Faults[j].Member })
	return res
}

// Reduction is the per-day statistical summary of an ensemble's surviving
// members.
type Reduction struct {
	// Quantiles echoes the requested probabilities, ascending.
	Quantiles []float64
	// Bands[i][t] is the Quantiles[i] quantile of surviving members' day-t
	// biomass (linear interpolation between order statistics, R type 7).
	Bands [][]float64
	// Mean and Spread are the survivors' per-day mean and population
	// standard deviation.
	Mean   []float64
	Spread []float64
	// Survivors counts members included in the reduction.
	Survivors int
}

// Reduce computes per-day quantile bands over the run's surviving members.
// Quarantined members are excluded entirely — a band mixing finite days of
// a member that later diverged would understate the divergence. Quantiles
// must each lie in (0,1); they are sorted ascending in the result. Errors
// when no member survived the full window.
func Reduce(r *RunResult, days int, quantiles []float64) (*Reduction, error) {
	qs := append([]float64(nil), quantiles...)
	sort.Float64s(qs)
	for _, q := range qs {
		if !(q > 0 && q < 1) {
			return nil, fmt.Errorf("ensemble: quantile %v outside (0,1)", q)
		}
	}
	var alive [][]float64
	for _, p := range r.Preds {
		if len(p) == days {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil, fmt.Errorf("ensemble: no surviving members (of %d)", len(r.Preds))
	}
	red := &Reduction{
		Quantiles: qs,
		Bands:     make([][]float64, len(qs)),
		Mean:      make([]float64, days),
		Spread:    make([]float64, days),
		Survivors: len(alive),
	}
	for i := range red.Bands {
		red.Bands[i] = make([]float64, days)
	}
	col := make([]float64, len(alive))
	for t := 0; t < days; t++ {
		for i, p := range alive {
			col[i] = p[t]
		}
		sort.Float64s(col)
		for i, q := range qs {
			red.Bands[i][t] = quantileSorted(col, q)
		}
		mean := 0.0
		for _, v := range col {
			mean += v
		}
		mean /= float64(len(col))
		vr := 0.0
		for _, v := range col {
			d := v - mean
			vr += d * d
		}
		red.Mean[t] = mean
		red.Spread[t] = math.Sqrt(vr / float64(len(col)))
	}
	return red, nil
}

// quantileSorted interpolates the q quantile of an ascending slice using
// h = q·(n-1) between adjacent order statistics (R type 7, numpy default).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
