package bio

import (
	"fmt"
	"testing"
)

// BenchmarkSegKernel measures the compiled simulation inner loop as the
// evaluator runs it on a structure-cache hit: the exogenous plan is built
// once, and each iteration runs the per-candidate prologue and the
// segmented kernel with warm scratch (allocation-free, as
// TestSegKernelSteadyStateAllocFree enforces).
func BenchmarkSegKernel(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.NewExogPlan(forcing)
	var sc SimScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Prologue(params, &sc)
		seg.Kernel(plan, cfg, &sc, nil)
	}
}

// BenchmarkKernelLanes measures one lane launch on BenchmarkSegKernel's
// workload at 1, 2, 4 and 8 members, so a launch's cost can be set against
// the scalar run's per member (allocation-free, as TestKernelLanesAllocFree
// enforces).
func BenchmarkKernelLanes(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.NewExogPlan(forcing)
	hook := func(int, int, float64) bool { return true }
	for _, n := range []int{1, 2, 4, 8} {
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
