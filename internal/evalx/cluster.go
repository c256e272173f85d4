// Cluster evaluation (DESIGN.md §14): the gp engine's structure-clustered
// population scheduler partitions each generation by memoized structure key
// and hands every same-structure cluster to EvaluateCluster, which scores
// the members through the lane-batched kernel with per-member semantics
// bitwise equal to sequential scalar Evaluate calls — the same fitnesses,
// fault-injection sites, quarantine classification, and tier-2 cache
// interactions in input order. ResolveStruct is the hoisted front half of a
// scalar evaluation (resolve + memoize the structure key), run once per
// individual before the partition so clusters form without re-derivation.
package evalx

import (
	"bytes"
	"math/bits"

	"gmr/internal/faultinject"
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
// cluster (gp.ClusterEvaluator). Callers must ResolveStruct every member
// first; the members' shared memoized key then locates the tier-1 entry
// without a second counted resolve. Per-member semantics equal sequential
// Evaluate calls in slice order; on an injected panic, every member before
// the panicker is committed first (the ClusterEvaluator panic protocol).
func (e *Evaluator) EvaluateCluster(inds []*gp.Individual) {
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)

	npend := 0
	var key string
	for _, ind := range inds {
		if !ind.Evaluated {
			if npend == 0 {
				key = ind.StructKey()
			}
			npend++
		}
	}
	var ent *structEntry
	if e.opts.UseCache && key != "" && key[0] == e.keyTag {
		ent = e.lookupStruct(key)
	}
	if npend > 1 && e.lanesFor(ent) {
		e.evaluateClusterLanes(ent, key, inds, sc)
		return
	}
	// Scalar fallback: singleton clusters and structures without a
	// segmented program evaluate sequentially. A
	// panic escapes with every earlier member committed, satisfying the
	// panic protocol for free.
	for _, ind := range inds {
		if ind.Evaluated {
			continue
		}
		switch {
		case !e.opts.UseCache:
			ind.Fitness, ind.FullEval = e.evalUncached(ind, ind.Params, sc)
		case key == "" || (ent != nil && ent.bad):
			// A failed derivation (ResolveStruct counted it and memoized no
			// key) or a bad structure: quarantine without re-deriving, as
			// the scalar path's single structFor would.
			ind.Fitness, ind.FullEval = e.badStructure()
		case ent == nil:
			// Key memoized by a differently-configured evaluator, or the
			// caller skipped ResolveStruct: full scalar evaluations, which
			// re-resolve (and count) per member.
			e.Evaluate(ind)
		default:
			ind.Fitness, ind.FullEval = e.evaluateResolved(ent, key, ind.Params, sc, true)
		}
		ind.Evaluated = true
	}
}

// evaluateClusterLanes is the lane-batched body of EvaluateCluster. Phase 1
// walks the members in input order — counters, fault injection, tier-2
// lookup, intra-cluster duplicate detection — collecting the cache misses as
// pending lane members; scoreLanes scores them; the commit loop inserts
// each into tier 2 and commits it in input order. Unlike
// EvaluateParamBatch's high-churn sweeps, the population path does insert
// simulated fitnesses into tier 2, exactly like scalar evaluation: clones,
// elites, and next-generation duplicates replay these keys.
//
// An injected panic at member i is deferred: phase 1 stops there (member i
// counted but not simulated, later members untouched), the pending prefix
// simulates and commits, then the panic is re-raised — so the engine's
// recovery quarantines exactly member i and re-invokes on the tail.
func (e *Evaluator) evaluateClusterLanes(ent *structEntry, key string, inds []*gp.Individual, sc *evalScratch) {
	pending := sc.lane[:0]
	dups := sc.dups[:0]
	sc.ckeys = sc.ckeys[:0]
	var deferred any

members:
	for i, ind := range inds {
		if ind.Evaluated {
			continue
		}
		e.countEval()
		off := len(sc.ckeys)
		sc.ckeys = appendFitKey(sc.ckeys, key, ind.Params)
		kb := sc.ckeys[off:]
		site := faultinject.HashBytes(kb)
		// injectPre, with the panic deferred per the protocol (panic
		// decision before latency, before the tier-2 lookup — the same
		// order and Hit accounting as the scalar path).
		if e.opts.Faults.Hit(faultinject.Panic, site) {
			deferred = faultinject.InjectedPanic{Site: "evalx.Evaluate", Hash: site}
			sc.ckeys = sc.ckeys[:off]
			break
		}
		e.opts.Faults.Sleep(site)
		if hit, ok := e.cachedFit(kb, site); ok {
			ind.Fitness, ind.Evaluated, ind.FullEval = hit.fitness, true, hit.full
			sc.ckeys = sc.ckeys[:off]
			continue
		}
		// Intra-cluster duplicate of a pending member: sequential order
		// would simulate the first occurrence and serve this one from
		// tier 2, so adopt the source's result after it commits.
		for _, p := range pending {
			if bytes.Equal(sc.ckeys[p.keyOff:p.keyOff+p.keyLen], kb) {
				dups = append(dups, dupPair{dst: ind, src: inds[p.idx]})
				sc.ckeys = sc.ckeys[:off]
				continue members
			}
		}
		m := e.laneMember(ent, i, ind.Params, site)
		m.keyOff, m.keyLen = off, len(kb)
		pending = append(pending, m)
	}
	sc.lane = pending
	sc.dups = dups

	launches := e.scoreLanes(ent, pending, sc)
	e.ctr[cPopLaneBatches].Add(int64(launches))
	e.ctr[cPopLanesFilled].Add(int64(len(pending)))
	for _, m := range pending {
		// Tier-2 insert, like the scalar path.
		e.cacheFit(sc.ckeys[m.keyOff:m.keyOff+m.keyLen], m.site, m.fitness, m.full)
		ind := inds[m.idx]
		ind.Fitness, ind.Evaluated, ind.FullEval = m.fitness, true, m.full
	}
	for _, d := range dups {
		e.ctr[cCacheHits].Add(1)
		d.dst.Fitness, d.dst.Evaluated, d.dst.FullEval = d.src.Fitness, true, d.src.FullEval
	}
	if deferred != nil {
		panic(deferred)
	}
}

var _ gp.ClusterEvaluator = (*Evaluator)(nil)
