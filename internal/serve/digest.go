package serve

import (
	"sort"

	"gmr/internal/bio"
	"gmr/internal/fnv"
)

// ConfigDigest fingerprints the evaluation configuration a forecast
// depends on: the constant-parameter layout and priors (which fix the
// meaning of every bundled parameter vector), the variable layout, and
// the integration regime (substeps and clamps — NOT the initial
// biomasses, which are per-window state, not configuration). A bundle
// whose producer digest differs from the serving digest was trained under
// an incompatible configuration; the registry rejects it instead of
// producing silently-wrong forecasts.
func ConfigDigest(consts []bio.Constant, sim bio.SimConfig) string {
	h := fnv.New().Field("consts").Int(len(consts))
	for _, c := range consts {
		h = h.Field(c.Name).F64(c.Mean).F64(c.Min).F64(c.Max)
	}
	h = h.Field("vars").Int(bio.NumVars)
	for _, s := range bio.StateVars() {
		h = h.Field(s)
	}
	for _, v := range bio.Variables() {
		h = h.Field(v.Name)
	}
	return h.Field("sim").Int(sim.SubSteps).F64(sim.ClampMin).F64(sim.ClampMax).Hex()
}

// overridesDigest hashes a scenario-override map (variable or parameter
// name → value) order-independently: names are sorted before mixing.
// Returns 0 for an empty map so "no overrides" has a stable digest.
func overridesDigest(ov map[string]float64) uint64 {
	if len(ov) == 0 {
		return 0
	}
	names := make([]string, 0, len(ov))
	for k := range ov {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New()
	for _, k := range names {
		h = h.Field(k).F64(ov[k])
	}
	return uint64(h)
}
