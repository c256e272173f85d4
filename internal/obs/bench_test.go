package obs

import (
	"testing"
	"time"
)

// TestHotPathZeroAlloc pins the observability overhead contract: counter
// increments, gauge sets, histogram observes, and the disabled tracer
// must not allocate. This test is the allocation gate; the benchmarks below
// (`make bench`) report the same paths' ns/op for reading.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h", "", nil, nil)
	var nilTracer *Tracer
	enabled := NewTracer(TracerConfig{Ring: 64})

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter inc", func() { c.Inc() }},
		{"gauge set", func() { g.Set(1) }},
		{"histogram observe", func() { h.Observe(0.01) }},
		{"disabled tracer span", func() { nilTracer.Start("x").End() }},
		{"disabled tracer observe", func() { nilTracer.Observe("x", time.Time{}, 0) }},
		{"enabled tracer span", func() { enabled.Start("x").End() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c_total", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", "", nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0123)
	}
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer(TracerConfig{Ring: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start("bench").End()
	}
}
