// Cluster evaluation (DESIGN.md §14): the gp engine's structure-clustered
// population scheduler partitions each generation by memoized structure key
// and hands every same-structure cluster to EvaluateCluster, which scores
// the members in one pipeline call with per-member semantics bitwise equal
// to sequential Evaluate calls — the same fitnesses, fault-injection
// sites, quarantine classification, and tier-2 cache interactions in input
// order. ResolveStruct is the hoisted front half of an evaluation (resolve +
// memoize the structure key), run once per individual before the partition
// so clusters form without re-derivation.
package evalx

import (
	"math/bits"

	"gmr/internal/gp"
)

// ResolveStruct resolves the individual's executable structure through the
// tier-1 cache and memoizes the canonical key on the individual, counting
// exactly what the resolution step of a plain Evaluate call counts (tier-1
// hit, or derive + compile). EvaluateCluster relies on it having run: it
// looks the entry up by the memoized key without counting a second resolve.
// No-op when caching is disabled (the uncached pipeline has no keys).
func (e *Evaluator) ResolveStruct(ind *gp.Individual) {
	if !e.opts.UseCache {
		return
	}
	e.structFor(ind)
}

// NoteCluster records one scheduled evaluation cluster for the population-
// scheduler telemetry: multi-member clusters, singleton scalar fallbacks,
// and the power-of-two cluster-size histogram.
func (e *Evaluator) NoteCluster(size int) {
	if size <= 0 {
		return
	}
	if size == 1 {
		e.ctr[cPopScalarFallbacks].Add(1)
	} else {
		e.ctr[cPopClusters].Add(1)
	}
	e.ctr[cPopClusterSize+counter(histBucket(size))].Add(1)
}

// histBucket maps a cluster size to its power-of-two histogram bucket:
// 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, >64.
func histBucket(size int) int {
	return min(bits.Len(uint(size-1)), PopHistBuckets-1)
}

// EvaluateCluster scores the unevaluated members of one same-structure
// cluster (gp.ClusterEvaluator) in one pipeline call under the population
// policy. Callers must ResolveStruct every member first; the members' shared
// memoized key then locates the tier-1 entry without a second counted
// resolve. Per-member semantics equal sequential Evaluate calls in slice
// order; on an injected panic, every member before the panicker is
// committed first (the ClusterEvaluator panic protocol).
func (e *Evaluator) EvaluateCluster(inds []*gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	ms := sc.gather(inds)
	if len(ms) == 0 {
		return
	}
	var ent *structEntry
	key := ms[0].ind.StructKey()
	if e.opts.UseCache && key != "" {
		if ent = e.lookupStruct(key); ent == nil {
			// Key memoized by another evaluator, or the caller skipped
			// ResolveStruct: resolve (and count) every member, as its own
			// Evaluate call would.
			for i := range ms {
				ent, key = e.structFor(ms[i].ind)
			}
		}
	}
	// An empty key is a failed derivation (ResolveStruct counted it and
	// memoized no key): nil ent quarantines without re-deriving.
	e.run(ent, key, population, sc)
}

var _ gp.ClusterEvaluator = (*Evaluator)(nil)
