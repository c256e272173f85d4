package gp

import (
	"bytes"
	"encoding/json"
	"io"
	"math"

	"gmr/internal/tag"
)

// SavedIndividual is the on-disk form of an individual: the derivation tree
// (structure), the constant-parameter vector, and — for checkpoints — the
// evaluation state. The fitness travels as math.Float64bits so the
// round-trip is bitwise exact even for ±Inf (which plain JSON numbers
// cannot represent); params rely on encoding/json's shortest-round-trip
// float formatting, which is exact for all finite float64 values.
type SavedIndividual struct {
	Params      []float64       `json:"params"`
	Deriv       json.RawMessage `json:"derivation"`
	FitnessBits uint64          `json:"fitness_bits,omitempty"`
	Evaluated   bool            `json:"evaluated,omitempty"`
	FullEval    bool            `json:"full_eval,omitempty"`
}

// Saved serializes the individual, including its evaluation state.
func (ind *Individual) Saved() (*SavedIndividual, error) {
	var buf bytes.Buffer
	if err := tag.Encode(&buf, ind.Deriv); err != nil {
		return nil, err
	}
	return &SavedIndividual{
		Params:      ind.Params,
		Deriv:       buf.Bytes(),
		FitnessBits: math.Float64bits(ind.Fitness),
		Evaluated:   ind.Evaluated,
		FullEval:    ind.FullEval,
	}, nil
}

// Resolve reconstructs the individual against the grammar, restoring the
// saved evaluation state (an individual saved as evaluated comes back with
// its exact fitness and is not re-evaluated — required for bitwise-
// deterministic checkpoint resume). The memoized structure key is not
// persisted; evaluators recompute it on first contact.
func (s *SavedIndividual) Resolve(g *tag.Grammar) (*Individual, error) {
	d, err := g.Decode(bytes.NewReader(s.Deriv))
	if err != nil {
		return nil, err
	}
	ind := NewIndividual(d, s.Params)
	if s.Evaluated {
		ind.Fitness = math.Float64frombits(s.FitnessBits)
		ind.Evaluated = true
		ind.FullEval = s.FullEval
	}
	return ind, nil
}

// Save writes the individual as JSON: a SavedIndividual, which Resolve
// turns back into the individual against the same grammar.
func (ind *Individual) Save(w io.Writer) error {
	sm, err := ind.Saved()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sm)
}
