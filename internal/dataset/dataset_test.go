package dataset

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/stats"
)

func genSmall(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(Config{Seed: 1, StartYear: 2000, EndYear: 2003, TrainEndYear: 2002})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateShape(t *testing.T) {
	d := genSmall(t)
	wantDays := 366 + 365 + 365 + 365 // 2000 is a leap year
	if d.Days != wantDays {
		t.Errorf("Days = %d, want %d", d.Days, wantDays)
	}
	if d.TrainEnd != 366+365+365 {
		t.Errorf("TrainEnd = %d, want %d", d.TrainEnd, 366+365+365)
	}
	if len(d.Forcing) != d.Days || len(d.ObsPhy) != d.Days || len(d.Dates) != d.Days {
		t.Error("series lengths disagree with Days")
	}
	if len(d.Forcing[0]) != bio.NumVars {
		t.Errorf("forcing width = %d, want %d", len(d.Forcing[0]), bio.NumVars)
	}
	if d.Dates[0] != "2000-01-01" || d.Dates[d.Days-1] != "2003-12-31" {
		t.Errorf("date range %s..%s", d.Dates[0], d.Dates[d.Days-1])
	}
	if len(d.StationRaw) != 9 {
		t.Errorf("StationRaw has %d stations, want 9", len(d.StationRaw))
	}
	if got := len(d.TrainForcing()) + len(d.TestForcing()); got != d.Days {
		t.Errorf("train+test = %d days, want %d", got, d.Days)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := genSmall(t)
	b := genSmall(t)
	for i := range a.ObsPhy {
		if a.ObsPhy[i] != b.ObsPhy[i] {
			t.Fatalf("day %d: same seed produced different data", i)
		}
	}
	c, err := Generate(Config{Seed: 2, StartYear: 2000, EndYear: 2003, TrainEndYear: 2002})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.ObsPhy {
		if a.ObsPhy[i] != c.ObsPhy[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratedValuesPlausible(t *testing.T) {
	d := genSmall(t)
	vi := bio.VarIndex()
	for day, row := range d.Forcing {
		checks := []struct {
			name   string
			lo, hi float64
		}{
			{"Vtmp", -5, 40},
			{"Vlgt", 0, 60},
			{"Vn", 0, 20},
			{"Vp", 0, 1},
			{"Vsi", 0, 30},
			{"Vdo", 0, 25},
			{"Vph", 5, 11},
			{"Valk", 0, 20},
			{"Vcd", 0, 15},
			{"Vsd", 0, 6},
		}
		for _, c := range checks {
			v := row[vi[c.name]]
			if math.IsNaN(v) || v < c.lo || v > c.hi {
				t.Fatalf("day %d: %s = %v outside [%v, %v]", day, c.name, v, c.lo, c.hi)
			}
		}
	}
	for day, p := range d.TruePhy {
		if p < 0.999 || p > 220.001 {
			t.Fatalf("day %d: TruePhy %v outside generator clamp", day, p)
		}
	}
	for day, p := range d.ObsPhy {
		if p <= 0 || math.IsNaN(p) || p > 500 {
			t.Fatalf("day %d: ObsPhy %v implausible", day, p)
		}
	}
}

func TestSeasonalityPresent(t *testing.T) {
	d := genSmall(t)
	vi := bio.VarIndex()
	// Mean summer temperature must exceed mean winter temperature by a
	// wide margin.
	var summer, winter []float64
	for day := 0; day < d.Days; day++ {
		doy := day % 365
		v := d.Forcing[day][vi["Vtmp"]]
		switch {
		case doy > 180 && doy < 240:
			summer = append(summer, v)
		case doy < 45 || doy > 340:
			winter = append(winter, v)
		}
	}
	if stats.Mean(summer)-stats.Mean(winter) < 10 {
		t.Errorf("seasonal temperature contrast too small: summer %v winter %v",
			stats.Mean(summer), stats.Mean(winter))
	}
	// Biomass must actually vary (blooms) — coefficient of variation
	// above 0.5.
	cv := stats.StdDev(d.TruePhy) / stats.Mean(d.TruePhy)
	if cv < 0.5 {
		t.Errorf("TruePhy CV = %v; expected bloom dynamics", cv)
	}
}

func TestInterpolationRegime(t *testing.T) {
	// Weekly-interpolated series must be piecewise linear between
	// sampled days.
	xs := []float64{0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400}
	out := interpolateSampled(xs, 7)
	if out[0] != 0 || out[7] != 700 || out[14] != 1400 {
		t.Fatalf("sampled anchors changed: %v", out)
	}
	for j := 1; j < 7; j++ {
		want := float64(j) * 100
		if math.Abs(out[j]-want) > 1e-9 {
			t.Errorf("interpolated day %d = %v, want %v", j, out[j], want)
		}
	}
	// step<=1 must copy.
	same := interpolateSampled(xs, 1)
	for i := range xs {
		if same[i] != xs[i] {
			t.Fatal("step=1 should be identity")
		}
	}
}

func TestObservationNoiseApplied(t *testing.T) {
	d := genSmall(t)
	// Observations differ from truth on sampled days (noise), but are
	// correlated overall.
	diffs := 0
	for i := range d.ObsPhy {
		if math.Abs(d.ObsPhy[i]-d.TruePhy[i]) > 1e-9 {
			diffs++
		}
	}
	if diffs < d.Days/2 {
		t.Errorf("only %d/%d observed days differ from truth", diffs, d.Days)
	}
	if r := stats.Pearson(d.ObsPhy, d.TruePhy); r < 0.8 {
		t.Errorf("obs/truth correlation = %v, want > 0.8", r)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := genSmall(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Days != d.Days || back.TrainEnd != d.TrainEnd {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", back.Days, back.TrainEnd, d.Days, d.TrainEnd)
	}
	for i := 0; i < d.Days; i++ {
		if math.Abs(back.ObsPhy[i]-d.ObsPhy[i]) > 1e-6*math.Abs(d.ObsPhy[i]) {
			t.Fatalf("day %d: ObsPhy %v vs %v", i, back.ObsPhy[i], d.ObsPhy[i])
		}
		for k := range d.Forcing[i] {
			if math.Abs(back.Forcing[i][k]-d.Forcing[i][k]) > 1e-6*(1+math.Abs(d.Forcing[i][k])) {
				t.Fatalf("day %d col %d: %v vs %v", i, k, back.Forcing[i][k], d.Forcing[i][k])
			}
		}
		if back.Dates[i] != d.Dates[i] {
			t.Fatalf("day %d: date %s vs %s", i, back.Dates[i], d.Dates[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b,c\n1,2,3\n")); err == nil {
		t.Error("wrong header accepted")
	}
}

// TestReadCSVSplit: the split column must be one or more train rows
// followed by one or more test rows; TrainEnd is the first test row.
func TestReadCSVSplit(t *testing.T) {
	csvOf := func(splits ...string) *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(strings.Join(csvHeader(), ",") + "\n")
		for i, s := range splits {
			rec := []string{fmt.Sprintf("2000-01-%02d", i+1)}
			for range csvHeader()[2:] {
				rec = append(rec, "1.5")
			}
			b.WriteString(strings.Join(append(rec, s), ",") + "\n")
		}
		return &b
	}
	for _, tc := range []struct {
		name     string
		splits   []string
		trainEnd int // -1: must be rejected
	}{
		{"train then test", []string{"train", "train", "test"}, 2},
		{"one of each", []string{"train", "test"}, 1},
		{"all train", []string{"train", "train"}, -1},
		{"all test", []string{"test", "test"}, -1},
		{"bad value", []string{"train", "valid", "test"}, -1},
		{"interleaved", []string{"train", "test", "train", "test"}, -1},
	} {
		d, err := ReadCSV(csvOf(tc.splits...))
		switch {
		case tc.trainEnd < 0 && err == nil:
			t.Errorf("%s: accepted, TrainEnd %d", tc.name, d.TrainEnd)
		case tc.trainEnd >= 0 && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.trainEnd >= 0 && d.TrainEnd != tc.trainEnd:
			t.Errorf("%s: TrainEnd %d, want %d", tc.name, d.TrainEnd, tc.trainEnd)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, StartYear: 2005, EndYear: 2004, TrainEndYear: 2005}); err == nil {
		t.Error("inverted period accepted")
	}
	if _, err := Generate(Config{Seed: 1, StartYear: 2000, EndYear: 2003, TrainEndYear: 2003}); err == nil {
		t.Error("train end == period end accepted (no test data)")
	}
}

// TestTruthIsRevisedManual verifies the generating process differs from the
// manual process in exactly the documented ways: it references Valk, Vph,
// Vcd (the pH/alkalinity term) and makes δZoo temperature-dependent.
func TestTruthIsRevisedManual(t *testing.T) {
	phy := TruthPhyDeriv()
	vars := map[string]bool{}
	for _, v := range phy.Vars() {
		vars[v] = true
	}
	if !vars["Vph"] {
		t.Error("truth dBPhy/dt missing the discovered pH dependence")
	}
	zoo := TruthZooDeriv()
	zvars := map[string]bool{}
	for _, v := range zoo.Vars() {
		zvars[v] = true
	}
	if !zvars["Vtmp"] {
		t.Error("truth dBZoo/dt missing temperature-dependent mortality")
	}
	// The manual process must NOT contain these revisions.
	mvars := map[string]bool{}
	for _, v := range bio.PhyDeriv().Vars() {
		mvars[v] = true
	}
	if mvars["Vph"] {
		t.Error("manual process already contains the hidden pH revision")
	}
}
