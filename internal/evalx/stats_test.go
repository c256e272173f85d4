package evalx

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gmr/internal/faultinject"
	"gmr/internal/gp"
	"gmr/internal/grammar"
	"gmr/internal/obs"
)

// TestObsExpositionMatchesStatsJSON: the exposition's counter= labels are
// exactly the integer keys of the JSON counter record, each once, plus one
// pop_cluster_size series per histogram bucket; every series shows the
// value the record holds.
func TestObsExpositionMatchesStatsJSON(t *testing.T) {
	forcing, obsF, consts := smallData(t)
	g, err := grammar.River(grammar.DefaultExtensions())
	if err != nil {
		t.Fatal(err)
	}
	opts := AllSpeedups(simCfg(obsF))
	opts.Faults = faultinject.New(3, map[faultinject.Fault]float64{faultinject.NaN: 0.2})
	ev := New(forcing, obsF, consts, opts)
	eng, err := gp.NewEngine(g, ev, gp.Config{PopSize: 48, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.EvaluatePopulation(parityPop(t, g, 6))

	reg := obs.NewRegistry()
	ev.RegisterObs(reg, "gmr_evalx", obs.Labels{"run": "0"})
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition([]byte(buf.String())); err != nil {
		t.Fatal(err)
	}

	st := ev.Stats()
	if st.QuarNaN == 0 || st.PopClusters == 0 {
		t.Fatalf("fixture left quarantine or cluster counters at zero: %+v", st)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var record map[string]any
	if err := json.Unmarshal(blob, &record); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	typ := reflect.TypeOf(st)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int {
			continue
		}
		key, opt, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		v, ok := record[key].(float64)
		if !ok && opt != "omitempty" {
			t.Fatalf("JSON record lacks %s: %s", key, blob)
		}
		want[key] = v // an omitted omitempty field is zero
	}
	for i, le := range [PopHistBuckets]string{"1", "2", "4", "8", "16", "32", "64", "+Inf"} {
		want["pop_cluster_size/"+le] = float64(st.PopClusterSizeHist[i])
	}

	sample := regexp.MustCompile(`^gmr_evalx\{counter="([a-z0-9_]+)",(?:le="([^"]+)",)?run="0"\} (\S+)$`)
	got := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected exposition line %q", line)
		}
		name := m[1]
		if m[2] != "" {
			name += "/" + m[2]
		}
		if _, dup := got[name]; dup {
			t.Errorf("series %s exported twice", name)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = v
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exposition does not match the JSON record:\n got %v\nwant %v", got, want)
	}
}
