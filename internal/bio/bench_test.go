package bio

import "testing"

// BenchmarkSegKernel measures the compiled simulation inner loop as the
// evaluator runs it on a structure-cache hit: the exogenous plan is built
// once, and each iteration runs the per-candidate prologue and the
// segmented kernel with warm scratch (allocation-free).
func BenchmarkSegKernel(b *testing.B) {
	phy, zoo, params, forcing := manualWorkload(b)
	seg, err := NewSegSystem(phy, zoo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{Phy0: 10, Zoo0: 1}
	plan := seg.BuildExogPlan(forcing)
	var sc SimScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Prologue(params, &sc)
		seg.Kernel(plan, cfg, &sc, nil)
	}
}
