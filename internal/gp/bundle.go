package gp

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"gmr/internal/fnv"
	"gmr/internal/tag"
)

// This file implements the model-bundle format: the deployable on-disk form
// of a champion model. A bundle wraps a SavedIndividual with the two
// compatibility fingerprints a serving process needs to refuse foreign
// artifacts — the hash of the grammar that the derivation tree is encoded
// against (elementary trees are referenced by name, so decoding against a
// different grammar silently builds a different model), and an opaque
// config digest computed by the producer over whatever evaluation
// parameters forecasts depend on (constants layout, simulation regime).
// The serving registry recomputes both and rejects mismatches with a
// reason code instead of producing garbage forecasts (see internal/serve).

// BundleVersion is the ModelBundle schema version; ReadBundle rejects
// files written by an incompatible build.
const BundleVersion = 1

// ModelBundle is the on-disk form of a deployable model: the serialized
// individual plus provenance and compatibility metadata.
type ModelBundle struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// SavedAt records when the bundle was written (UTC).
	SavedAt time.Time `json:"saved_at"`
	// GrammarHash fingerprints the grammar the derivation is encoded
	// against (GrammarHash).
	GrammarHash string `json:"grammar_hash"`
	// ConfigDigest is the producer's digest of the evaluation
	// configuration forecasts depend on; consumers compare it against
	// their own digest of the serving configuration.
	ConfigDigest string `json:"config_digest"`
	// TrainRMSE and TestRMSE are the producer-side accuracy of the model,
	// recorded for operator inspection only (the serving registry
	// re-scores against its own dataset).
	TrainRMSE float64 `json:"train_rmse,omitempty"`
	TestRMSE  float64 `json:"test_rmse,omitempty"`
	// Model is the serialized individual.
	Model *SavedIndividual `json:"model"`
	// Posterior is the optional parameter-posterior block (gmr
	// -export-model -posterior N): retained MCMC states around the model's
	// structure, for ensemble uncertainty forecasting. Absent in bundles
	// written before the block existed; readers treat nil as "point
	// forecasts only".
	Posterior *BundlePosterior `json:"posterior,omitempty"`
}

// PosteriorVersion is the BundlePosterior schema version; ReadBundle
// rejects posterior blocks written by an incompatible build.
const PosteriorVersion = 1

// BundlePosterior is a bundle's parameter-posterior block: a bounded,
// deterministically thinned sample of post-burn-in calibration states in
// the same parameter layout as the model's own vector. Like the rest of
// the bundle it is digest-guarded — Digest covers every sample bit — so a
// hand-edited or truncated block is rejected at read time instead of
// silently skewing uncertainty bands.
type BundlePosterior struct {
	Version int `json:"version"`
	// Method names the sampler that produced the states ("DREAM").
	Method string `json:"method,omitempty"`
	// Samples are the retained parameter vectors, in retention order.
	Samples [][]float64 `json:"samples"`
	// Digest is the FNV-1a fingerprint of Samples (dimensions and bits).
	Digest string `json:"digest"`
}

// NewBundlePosterior packages retained samples as a bundle block,
// computing the digest. Samples are referenced, not copied.
func NewBundlePosterior(method string, samples [][]float64) *BundlePosterior {
	return &BundlePosterior{
		Version: PosteriorVersion,
		Method:  method,
		Samples: samples,
		Digest:  posteriorDigest(samples),
	}
}

// Verify checks the block's schema version and digest. Called by
// ReadBundle; exported so registries can re-verify after transport.
func (p *BundlePosterior) Verify() error {
	if p.Version != PosteriorVersion {
		return fmt.Errorf("gp: posterior block version %d, this build supports %d", p.Version, PosteriorVersion)
	}
	if len(p.Samples) == 0 {
		return fmt.Errorf("gp: posterior block has no samples")
	}
	if got := posteriorDigest(p.Samples); got != p.Digest {
		return fmt.Errorf("gp: posterior digest %s does not match samples (%s)", p.Digest, got)
	}
	return nil
}

// posteriorDigest fingerprints a sample set: count, per-sample dimension,
// and every value's bit pattern, FNV-1a mixed in order.
func posteriorDigest(samples [][]float64) string {
	h := fnv.New().U64(uint64(len(samples)))
	for _, s := range samples {
		h = h.U64(uint64(len(s)))
		for _, v := range s {
			h = h.F64(v)
		}
	}
	return h.Hex()
}

// NewBundle packages an individual for deployment against the grammar it
// was evolved under. configDigest is the producer's evaluation-config
// digest (see ModelBundle.ConfigDigest).
func NewBundle(ind *Individual, g *tag.Grammar, name, configDigest string) (*ModelBundle, error) {
	saved, err := ind.Saved()
	if err != nil {
		return nil, fmt.Errorf("gp: bundle: %v", err)
	}
	return &ModelBundle{
		Version:      BundleVersion,
		Name:         name,
		SavedAt:      time.Now().UTC(),
		GrammarHash:  GrammarHash(g),
		ConfigDigest: configDigest,
		Model:        saved,
	}, nil
}

// Write serializes the bundle as indented JSON.
func (b *ModelBundle) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBundle decodes a bundle written by Write, validating the schema
// version and the presence of a model. It does not resolve the derivation
// tree; call Resolve with the serving grammar for that.
func ReadBundle(r io.Reader) (*ModelBundle, error) {
	var b ModelBundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("gp: bundle: %v", err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("gp: bundle version %d, this build supports %d", b.Version, BundleVersion)
	}
	if b.Model == nil {
		return nil, fmt.Errorf("gp: bundle has no model")
	}
	if b.Posterior != nil {
		if err := b.Posterior.Verify(); err != nil {
			return nil, err
		}
	}
	return &b, nil
}

// Resolve reconstructs the bundled individual against the grammar,
// refusing a grammar whose hash does not match the bundle's: elementary
// trees travel by name, so a mismatched grammar would silently decode a
// different model (or fail opaquely).
func (b *ModelBundle) Resolve(g *tag.Grammar) (*Individual, error) {
	if got := GrammarHash(g); got != b.GrammarHash {
		return nil, fmt.Errorf("gp: bundle grammar hash %s does not match serving grammar %s", b.GrammarHash, got)
	}
	ind, err := b.Model.Resolve(g)
	if err != nil {
		return nil, fmt.Errorf("gp: bundle: %v", err)
	}
	return ind, nil
}

// GrammarHash fingerprints a grammar's derivation-relevant content: every
// elementary tree's name, kind, root symbol, and canonical template
// expression (alphas in order, betas by sorted root symbol), plus the set
// of lexeme symbols. Two grammars with equal hashes decode any encoded
// derivation tree to the same model structure. Lexeme *generators* are
// code, not data, and are excluded — they only affect random derivation,
// never decoding.
func GrammarHash(g *tag.Grammar) string {
	h := fnv.New()
	tree := func(t *tag.ElemTree) {
		h = h.Field(t.Name).Field(t.Kind.String()).Field(t.RootSym).Field(t.Root.String())
	}
	h = h.Field("alphas")
	for _, t := range g.Alphas {
		tree(t)
	}
	syms := make([]string, 0, len(g.Betas))
	for sym := range g.Betas {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	h = h.Field("betas")
	for _, sym := range syms {
		h = h.Field(sym)
		for _, t := range g.Betas[sym] {
			tree(t)
		}
	}
	lex := make([]string, 0, len(g.Lexemes))
	for sym := range g.Lexemes {
		lex = append(lex, sym)
	}
	sort.Strings(lex)
	h = h.Field("lexemes")
	for _, sym := range lex {
		h = h.Field(sym)
	}
	return h.Hex()
}
