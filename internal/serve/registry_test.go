package serve

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/gp"
	"gmr/internal/orchestrator"
)

func TestRegistryLoadsBundlesAndPicksChampion(t *testing.T) {
	s, dir := newTestServer(t, nil)
	// A second, perturbed model: different parameters, different (worse or
	// better) serving RMSE — the champion must be the RMSE argmin.
	writeBundle(t, dir, "variant", testBundle(t, "variant", 0.5))
	if err := s.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}

	models := s.Registry().Models()
	if len(models) != 2 {
		t.Fatalf("got %d models, want 2", len(models))
	}
	var best string
	bestRMSE := math.Inf(1)
	for _, m := range models {
		if !m.Ready() {
			t.Fatalf("model %s not ready: %s (%s)", m.ID, m.Reason, m.Detail)
		}
		if m.ServingRMSE <= 0 || math.IsInf(m.ServingRMSE, 0) {
			t.Fatalf("model %s has implausible serving RMSE %v", m.ID, m.ServingRMSE)
		}
		if m.PhyExpr == "" || m.ZooExpr == "" {
			t.Fatalf("model %s is missing compiled expressions", m.ID)
		}
		if m.ServingRMSE < bestRMSE {
			bestRMSE, best = m.ServingRMSE, m.ID
		}
	}
	champ, why := s.Registry().Lookup("")
	if champ == nil {
		t.Fatalf("no champion: %s", why)
	}
	if champ.ID != best {
		t.Fatalf("champion %s, want RMSE argmin %s", champ.ID, best)
	}
}

func TestRegistryRejectionReasons(t *testing.T) {
	s, dir := newTestServer(t, nil)

	writeBundle(t, dir, "foreign-grammar", testBundle(t, "fg", 0), func(b *gp.ModelBundle) {
		b.GrammarHash = "deadbeef"
	})
	writeBundle(t, dir, "foreign-config", testBundle(t, "fc", 0), func(b *gp.ModelBundle) {
		b.ConfigDigest = "deadbeef"
	})
	writeBundle(t, dir, "short-params", testBundle(t, "sp", 0), func(b *gp.ModelBundle) {
		b.Model.Params = b.Model.Params[:3]
	})
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}

	want := map[string]string{
		"champion":        "", // still ready
		"foreign-grammar": RejectGrammarMismatch,
		"foreign-config":  RejectConfigMismatch,
		"short-params":    RejectBadParams,
		"garbage":         RejectDecodeError,
	}
	models := s.Registry().Models()
	if len(models) != len(want) {
		t.Fatalf("got %d models, want %d", len(models), len(want))
	}
	for _, m := range models {
		reason, ok := want[m.ID]
		if !ok {
			t.Fatalf("unexpected model %s", m.ID)
		}
		if reason == "" {
			if !m.Ready() {
				t.Errorf("model %s should be ready, got %s (%s)", m.ID, m.Reason, m.Detail)
			}
			continue
		}
		if m.Status != StatusRejected || m.Reason != reason {
			t.Errorf("model %s: status %s reason %q, want rejected %q (%s)", m.ID, m.Status, m.Reason, reason, m.Detail)
		}
	}

	// Rejected models are not servable by name, and the champion is
	// unaffected.
	if m, why := s.Registry().Lookup("foreign-grammar"); m != nil || why == "" {
		t.Fatalf("rejected model resolved: %v %q", m, why)
	}
	if champ, why := s.Registry().Lookup(""); champ == nil || champ.ID != "champion" {
		t.Fatalf("champion lookup failed: %s", why)
	}
}

// TestRegistryRejectsUnbindableCheckpoint: a checkpoint carries no serving
// fingerprints, so a model whose parameter names the serving constants do
// not define passes decode and the parameter-count check and fails only at
// binding. It is rejected as bad_structure, and the entry still carries the
// expressions that failed to bind (the /v1/models listing shows them).
func TestRegistryRejectsUnbindableCheckpoint(t *testing.T) {
	consts := bio.DefaultConstants()
	consts[0].Name += "_renamed"
	dir := t.TempDir()

	ind, _, err := core.ManualIndividual(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := ind.Saved()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(orchestrator.Checkpoint{
		Version: orchestrator.CheckpointVersion,
		Islands: []*gp.EngineSnapshot{{Best: saved}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "island.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ds := testDataset(t)
	sim := dataset.ModelSimConfig(2, ds.ObsPhy[0], ds.ObsZoo[0])
	reg, err := NewRegistry(dir, consts, ds.TrainForcing(), ds.TrainObsPhy(), sim)
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range reg.Models() {
		if m.ID != "island" {
			continue
		}
		if m.Source != "checkpoint" || m.Status != StatusRejected || m.Reason != RejectBadStructure {
			t.Fatalf("checkpoint: source %q status %q reason %q (%s), want a rejected checkpoint with %q",
				m.Source, m.Status, m.Reason, m.Detail, RejectBadStructure)
		}
		if m.PhyExpr == "" || m.ZooExpr == "" {
			t.Fatalf("rejected entry lost its expressions: phy %q zoo %q", m.PhyExpr, m.ZooExpr)
		}
		return
	}
	t.Fatalf("checkpoint missing from the registry: %d models", len(reg.Models()))
}

func TestReloadReusesUnchangedEntriesAndSwapsChanged(t *testing.T) {
	s, dir := newTestServer(t, nil)
	before, _ := s.Registry().Lookup("champion")
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Registry().Lookup("champion")
	if before != after {
		t.Fatalf("unchanged file was recompiled: %p vs %p", before, after)
	}

	writeBundle(t, dir, "champion", testBundle(t, "champion-v2", 0.25))
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	swapped, _ := s.Registry().Lookup("champion")
	if swapped == before {
		t.Fatal("changed file did not produce a new entry")
	}
	if swapped.Version == before.Version {
		t.Fatal("changed file kept its content version")
	}
	// The old entry stays usable by in-flight holders (immutability).
	if !before.Ready() || before.seg == nil {
		t.Fatal("superseded entry was mutated")
	}
}

func TestRegistryEmptyDirHasNoChampion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dataset: testDataset(t), ModelsDir: dir, CacheSize: -1})
	if err != nil {
		t.Fatalf("serve.New on empty dir should succeed (daemon starts, readyz 503): %v", err)
	}
	defer s.Close()
	if m, why := s.Registry().Lookup(""); m != nil || why == "" {
		t.Fatalf("champion from empty catalog: %v %q", m, why)
	}
}
