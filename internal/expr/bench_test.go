package expr

import "testing"

// BenchmarkTreeEval measures direct tree interpretation of a representative
// growth-rate-sized expression (mixed arithmetic, min, exp/log — the shapes
// the river grammar derives), the baseline that compilation replaces.
func BenchmarkTreeEval(b *testing.B) {
	src := "CUA * min(Vn / (Vn + 0.2), Vp / (Vp + 0.02)) * exp(0.07 * Vtmp) * BPhy - CRA * BPhy * BZoo / (BPhy + 10) + log(1 + Vlgt)"
	n, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{
		VarByName:   map[string]float64{"Vn": 1.5, "Vp": 0.08, "Vtmp": 18, "Vlgt": 22, "BPhy": 12, "BZoo": 1.3},
		ParamByName: map[string]float64{"CUA": 0.5, "CRA": 0.3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := n.Eval(env)
		if err != nil {
			b.Fatal(err)
		}
		sink = v
	}
	_ = sink
}
