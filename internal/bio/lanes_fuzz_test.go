package bio

import (
	"math"
	"math/rand"
	"testing"

	"gmr/internal/expr"
)

// FuzzLaneKernelVsScalar fuzzes the lane-batched kernel against per-member
// scalar runs: arbitrary derivative structures (both RHS sources come from
// the fuzzer), an arbitrary batch width L ∈ 1..12 (exercising tail padding
// and multi-chunk batches), arbitrary clamp configurations, and non-finite
// poisons injected into parameter vectors and forcing cells. Every member's
// hook trace — days, bitwise biomasses, abort values, early stops — must
// match its scalar run exactly.
//
// knobs bit layout: bits 0..3 batch width, 4..6 clamp mode, 8..19 per-member
// parameter poison mask, 20..21 poison kind (NaN/±Inf), bit 32 forcing
// poison, bits 36..37 substeps.
func FuzzLaneKernelVsScalar(f *testing.F) {
	seeds := []struct {
		phy, zoo string
		seed     int64
		knobs    uint64
	}{
		{
			"BPhy * CUA * min(Vn / (Vn + CN), Vp / (Vp + CP), Vlgt / CBL) - CMFR * BZoo * (BPhy / (BPhy + CFS))",
			"CUZ * BZoo * (BPhy / (BPhy + CFS)) - CDZ * BZoo",
			1, 7, // full-ish batch, default clamps
		},
		{
			"exp(exp(BPhy)) * Vlgt",
			"BZoo * BZoo * BZoo * CUA + exp(BPhy * Vtmp)",
			2, 0x10<<0 | 11, // hostile blow-up, clamp-disabled mode
		},
		{
			"Vlgt / (Vtmp + CFS)",
			"CUZ * CDZ - CBRZ",
			3, 0x00f00 | 5, // poisoned params on members 0..3
		},
		{
			"BPhy * (CUA * exp(-(Vtmp - CBTP1) * (Vtmp - CBTP1) * CPT)) - CBRA * BPhy",
			"BZoo * log(Vdo + CFmin) - CBRZ * BZoo * exp(CBMT)",
			4, 1<<32 | 2<<36 | 9, // forcing poison, 3 substeps
		},
		// Mixed-cluster shapes from the structure-clustered population
		// scheduler (DESIGN.md §14): one structure, laneChunk-width batches
		// where only some members carry poisoned parameter vectors — the
		// cluster must finish its clean members bitwise-identically while
		// quarantining the poisoned lanes mid-flight.
		{
			"BPhy * CUA * (Vn / (Vn + CN)) - CMFR * BZoo * (BPhy / (BPhy + CFS))",
			"CUZ * BZoo * (BPhy / (BPhy + CFS)) - CDZ * BZoo",
			5, 1<<10 | 1<<13 | 1<<20 | 8, // full laneChunk (width 8), NaN poison on members 2 and 5
		},
		{
			"BPhy * CUA * exp(-(Vtmp - CBTP1) * (Vtmp - CBTP1) * CPT) * (Vlgt / CBL)",
			"CUZ * BZoo * (BPhy / (BPhy + CFS)) - CDZ * BZoo - CBRZ * BZoo",
			6, 0xAAA<<8 | 2<<20 | 1<<36 | 12, // two-chunk batch (width 12), Inf poison on alternating members
		},
	}
	for _, s := range seeds {
		f.Add(s.phy, s.zoo, s.seed, s.knobs)
	}

	consts := DefaultConstants()
	paramIdx := ParamIndex(consts)
	varIdx := VarIndex()

	f.Fuzz(func(t *testing.T, phySrc, zooSrc string, seed int64, knobs uint64) {
		if len(phySrc) > 512 || len(zooSrc) > 512 {
			t.Skip("input too long")
		}
		phy, err := expr.Parse(phySrc)
		if err != nil {
			return
		}
		zoo, err := expr.Parse(zooSrc)
		if err != nil {
			return
		}
		if expr.Bind(phy, varIdx, paramIdx) != nil || expr.Bind(zoo, varIdx, paramIdx) != nil {
			return // names outside the bio universe
		}
		seg, err := NewSegSystem(phy, zoo)
		if err != nil {
			return // e.g. open substitution sites
		}

		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(knobs&0xf)%12
		cfg := SimConfig{Phy0: 0.1 + rng.Float64()*3, Zoo0: rng.Float64() * 2}
		cfg.SubSteps = 1 + int(knobs>>36)&0x3
		switch (knobs >> 4) & 0x7 {
		case 1, 2:
			cfg.ClampMin, cfg.ClampMax = -1, -1 // sentinel: unbounded
		case 3:
			cfg.ClampMax = 50
		case 4:
			cfg.ClampMin, cfg.ClampMax = 1e-6, 10
		}

		forcing := randForcing(rng, 8+int(seed%24+24)%24)
		if knobs&(1<<32) != 0 {
			row := rng.Intn(len(forcing))
			forcing[row][rng.Intn(NumVars)] = math.NaN()
		}
		params := make([][]float64, n)
		poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
		for m := range params {
			params[m] = randBoxParams(rng, consts)
			if knobs>>(8+uint(m)%12)&1 != 0 {
				params[m][rng.Intn(len(params[m]))] = poison[(knobs>>20)&0x3]
			}
		}

		plan := seg.NewExogPlan(forcing)
		want := runAlone(seg, plan, cfg, params, nil)

		got := make([]stepTrace, n)
		var scLanes SimScratch
		seg.KernelLanes(plan, cfg, &scLanes, params, func(m, day int, bphy float64) bool {
			return got[m].hook(-1)(day, bphy)
		}, nil)
		for m := range params {
			if !sameTrace(&want[m], &got[m]) {
				t.Fatalf("member %d/%d of (%q, %q): lane trace diverges from scalar\nscalar days %v vals %v\nlane   days %v vals %v",
					m, n, phySrc, zooSrc, want[m].ts, want[m].vals, got[m].ts, got[m].vals)
			}
		}
	})
}
