// Package gmr is a from-scratch Go implementation of Knowledge-Guided
// Dynamic Systems Modeling (genetic model revision, GMR): tree-adjoining
// grammar guided genetic programming that revises a knowledge-based
// dynamic-system model — structure and parameters — under the guidance of
// prior knowledge, evaluated on a synthetic reproduction of the paper's
// river water quality case study.
//
// The implementation lives in internal packages:
//
//	internal/expr     expression trees, evaluation, simplification, register VM
//	internal/tag      tree-adjoining grammar: α/β trees, adjunction, derivation trees
//	internal/gp       the TAG3P evolutionary engine
//	internal/grammar  the river-modeling knowledge grammar (Table II)
//	internal/bio      the biological process (equations 1–2, Tables III–IV)
//	internal/river    the hydrological process (equation 9, Appendix A)
//	internal/dataset  the synthetic Nakdong dataset generator
//	internal/evalx    fitness evaluation with the paper's three speedups
//	internal/core     the GMR framework (Figure 5) and Figure 9 analyses
//	internal/calib    nine model-calibration baselines
//	internal/gggp     the GGGP model-revision baseline
//	internal/arimax   the ARIMAX data-driven baseline
//	internal/rnn      the LSTM data-driven baseline
//	internal/experiments  regeneration of every table and figure
//
// Binaries: cmd/gmr (train and inspect a revision), cmd/datagen (synthesize
// the dataset), cmd/riverbench (regenerate Table V and Figures 1/9/10/11).
// See README.md, DESIGN.md, and EXPERIMENTS.md.
package gmr
