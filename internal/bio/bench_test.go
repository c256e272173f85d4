package bio

import (
	"fmt"
	"testing"
)

// BenchmarkSegKernel measures the compiled simulation inner loop as the
// evaluator runs it on a structure-cache hit: the exogenous plan is built
// once, and each iteration is a one-member KernelLanes call — the scalar
// loop's prologue and kernel — with warm scratch (allocation-free, as
// TestSegKernelSteadyStateAllocFree enforces).
func BenchmarkSegKernel(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.NewExogPlan(forcing)
	one := [][]float64{params}
	hook := func(int, int, float64) bool { return true }
	var sc SimScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.KernelLanes(plan, cfg, &sc, one, hook, nil)
	}
}

// BenchmarkKernelLanes measures one lane launch on BenchmarkSegKernel's
// workload at 2, 4 and 8 members, so a launch's cost can be set against
// the scalar loop's per member (a lone member runs that loop; allocation-
// free, as TestKernelLanesAllocFree enforces).
func BenchmarkKernelLanes(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.NewExogPlan(forcing)
	hook := func(int, int, float64) bool { return true }
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			members := make([][]float64, n)
			for m := range members {
				members[m] = params
			}
			var sc SimScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg.KernelLanes(plan, cfg, &sc, members, hook, nil)
			}
		})
	}
}

// BenchmarkExogPlanFill measures the EXOG segment on time lanes: each
// iteration fills a fresh 3653-day (ten-year) plan of the manual process,
// every block, from empty.
func BenchmarkExogPlanFill(b *testing.B) {
	phy, zoo, _, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	const days = 3653
	long := make([][]float64, days)
	for t := range long {
		long[t] = forcing[t%len(forcing)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.NewExogPlan(long).block((days - 1) / planBlock)
	}
}
