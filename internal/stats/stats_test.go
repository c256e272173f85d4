package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTruncGaussBounds(t *testing.T) {
	rng := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := TruncGauss(rng, 0.5, 2.0, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("TruncGauss out of bounds: %v", v)
		}
	}
}

func TestTruncGaussCentersOnMean(t *testing.T) {
	rng := NewRand(2)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += TruncGauss(rng, 5, 0.1, 0, 10)
	}
	if m := sum / n; math.Abs(m-5) > 0.01 {
		t.Errorf("mean = %v, want ~5", m)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := NewRand(3)
	const n, d = 50, 4
	pts := LatinHypercube(rng, n, d)
	if len(pts) != n {
		t.Fatalf("got %d points", len(pts))
	}
	// Each dimension must have exactly one point per stratum [i/n,(i+1)/n).
	for j := 0; j < d; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point outside unit cube: %v", v)
			}
			s := int(v * n)
			if seen[s] {
				t.Fatalf("dimension %d stratum %d hit twice", j, s)
			}
			seen[s] = true
		}
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-1.25) > 1e-12 {
		t.Errorf("Variance = %v", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty-input conventions violated")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if r := Pearson(x, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Errorf("length mismatch correlation = %v, want 0", r)
	}
}

func TestStandardize(t *testing.T) {
	z, mean, sd := Standardize([]float64{2, 4, 6})
	if mean != 4 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(Mean(z)) > 1e-12 || math.Abs(StdDev(z)-1) > 1e-12 {
		t.Errorf("standardized series has mean %v sd %v", Mean(z), StdDev(z))
	}
	if sd == 0 {
		t.Error("sd reported as 0")
	}
	z, _, sd = Standardize([]float64{5, 5, 5})
	if sd != 1 {
		t.Errorf("constant series sd = %v, want fallback 1", sd)
	}
	for _, v := range z {
		if v != 0 {
			t.Errorf("constant series standardizes to %v, want 0", v)
		}
	}
}

func TestOLSExactFit(t *testing.T) {
	// y = 3 + 2*x, exactly recoverable.
	var x [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		xi := float64(i)
		x = append(x, []float64{1, xi})
		y = append(y, 3+2*xi)
	}
	b, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-3) > 1e-9 || math.Abs(b[1]-2) > 1e-9 {
		t.Errorf("b = %v, want [3 2]", b)
	}
}

func TestOLSLeastSquares(t *testing.T) {
	// Overdetermined noisy system: residual must be orthogonal to columns.
	rng := NewRand(5)
	n, p := 60, 3
	x := make([][]float64, n)
	y := make([]float64, n)
	truth := []float64{1.5, -2.0, 0.5}
	for i := range x {
		x[i] = []float64{1, rng.NormFloat64(), rng.NormFloat64()}
		for j := 0; j < p; j++ {
			y[i] += truth[j] * x[i][j]
		}
		y[i] += 0.01 * rng.NormFloat64()
	}
	b, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	pred := Predict(x, b)
	for j := 0; j < p; j++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += (y[i] - pred[i]) * x[i][j]
		}
		if math.Abs(dot) > 1e-8 {
			t.Errorf("residual not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	// Singular: duplicate columns.
	x := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	if _, err := OLS(x, []float64{1, 2, 3}); err == nil {
		t.Error("singular system accepted")
	}
	// More columns than rows.
	if _, err := OLS([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
}

func TestClamp(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		c := Clamp(v, -1, 1)
		return c >= -1 && c <= 1 && (v < -1 || v > 1 || c == v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRand(42)
	a := Split(parent)
	b := Split(parent)
	// Child streams must differ from each other.
	same := true
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("Split produced identical child streams")
	}
	// Determinism: same parent seed reproduces the same children.
	p2 := NewRand(42)
	c := Split(p2)
	d := Split(p2)
	a2, b2 := NewRand(0), NewRand(0)
	_ = a2
	_ = b2
	a = Split(NewRand(42))
	if a.Int63() != c.Int63() {
		t.Error("Split not deterministic for equal parent seeds")
	}
	_ = d
}
