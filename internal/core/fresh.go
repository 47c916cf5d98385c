package core

import (
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/tableset"
)

// visibleSets caches, per table subset and invocation, the result plans
// visible under the current focus split into fresh (inserted in this
// invocation) and old, with the frontier filter of DESIGN.md D6 applied.
// The structs (and their backing arrays) are pooled on the optimizer and
// recycled across invocations.
type visibleSets struct {
	fresh, old []*plan.Node
}

// takeVis hands out a recycled visibleSets (or grows the pool).
func (o *Optimizer) takeVis() *visibleSets {
	if o.visUsed < len(o.visPool) {
		vs := o.visPool[o.visUsed]
		o.visUsed++
		vs.fresh, vs.old = vs.fresh[:0], vs.old[:0]
		return vs
	}
	vs := &visibleSets{}
	o.visPool = append(o.visPool, vs)
	o.visUsed++
	return vs
}

// visible collects and filters the result plans of subset q under the
// focus [0..b, 0..r]. Because phase two walks subsets in ascending size,
// the result set of every split operand is final when requested, so the
// per-invocation cache is sound. Collection runs through the optimizer's
// scratch slices (visAll/visEpochs/visKeep), so only the cached
// fresh/old slices retain plan references after the call.
func (o *Optimizer) visible(q tableset.Set, b cost.Vector, r int) *visibleSets {
	if vs, ok := o.visCache[q]; ok {
		return vs
	}
	vs := o.takeVis()
	if ix, ok := o.res[q]; ok {
		o.visAll = o.visAll[:0]
		o.visEpochs = o.visEpochs[:0]
		ix.Query(b, r, 0, o.visCollect)
		o.visKeep = o.frontierFilter(o.visAll, o.visKeep)
		for i, p := range o.visAll {
			if !o.visKeep[i] {
				continue
			}
			if o.visEpochs[i] >= o.epoch {
				vs.fresh = append(vs.fresh, p)
			} else {
				vs.old = append(vs.old, p)
			}
		}
	}
	o.visCache[q] = vs
	return vs
}

// frontierFilter marks which plans to keep for pair formation: a plan is
// dropped when another kept plan covers its order, produces no more
// rows, and dominates its cost (first occurrence wins ties). Joining a
// dropped plan can never produce anything its dominator's join would not
// dominate, so dropping is sound; it keeps pair formation quadratic in
// the frontier size rather than in the accumulated result-set size.
//
// The verdicts are written into the caller-owned keep scratch slice
// (grown as needed) and the possibly-reallocated slice is returned; the
// caller stores it back into the scratch field it came from.
func (o *Optimizer) frontierFilter(all []*plan.Node, keep []bool) []bool {
	keep = keep[:0]
	for range all {
		keep = append(keep, true)
	}
	if o.cfg.DisableVisibleFrontierFilter {
		return keep
	}
	// A plan is dropped when another plan with covering order and no
	// more rows strictly dominates it, or equals it with a smaller
	// index (so exactly one representative of each tie group survives).
	// Every dropped plan is transitively covered by a kept plan: the
	// drop relation is a strict partial order whose maximal elements
	// are kept.
	for i, p := range all {
		for j, q := range all {
			if i == j {
				continue
			}
			if !o.cfg.DisableOrderAwarePruning && !q.Order.Covers(p.Order) {
				continue
			}
			if q.Rows > p.Rows {
				continue
			}
			if q.Cost.StrictlyDominates(p.Cost) || (j < i && q.Cost.Equal(p.Cost)) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// hasFresh reports whether subset q's result set can hold a plan
// inserted in the current invocation at resolution ≤ r, using the range
// index's epoch watermark — no entries are touched. A false answer is
// exact (watermarks never under-report), so callers may skip Δ-filtered
// work outright.
func (o *Optimizer) hasFresh(q tableset.Set, r int) bool {
	ix, ok := o.res[q]
	return ok && ix.EpochWatermark(r) >= o.epoch
}

// combineFresh implements function Fresh of Algorithm 3 for one ordered
// split (q1, q2) of table set sub, followed by pruning of the generated
// plans: it filters both result sets to the current focus [0..b, 0..r],
// enumerates sub-plan pairs that were not combined before, and prunes
// every join alternative of every fresh pair.
//
// When deltaOK holds (the invocation series keeps tightening bounds while
// refining resolution), the Δ operator restricts attention to pairs that
// involve at least one plan inserted in the current invocation:
//
//	pairs = ΔP1×(P2\ΔP2) ∪ (P1\ΔP1)×ΔP2 ∪ ΔP1×ΔP2
//
// Otherwise Δ degenerates to the full sets and staleness is decided by
// the IsFresh pair memo alone, so no plan is ever constructed twice
// either way (Lemma 5) and no pair is combined twice (Lemma 6).
func (o *Optimizer) combineFresh(sub, q1, q2 tableset.Set, b cost.Vector, r int, deltaOK bool) {
	if deltaOK && !o.hasFresh(q1, r) && !o.hasFresh(q2, r) {
		// The epoch watermarks prove neither operand gained a result
		// plan this invocation, so Δ would leave nothing: skip the
		// split before paying for the visible-set computation.
		return
	}

	v1 := o.visible(q1, b, r)
	v2 := o.visible(q2, b, r)
	n1 := len(v1.fresh) + len(v1.old)
	n2 := len(v2.fresh) + len(v2.old)
	if n1 == 0 || n2 == 0 {
		return
	}

	if !deltaOK {
		// Δ = S: consider the full cross product, memo-guarded.
		o.combinePairs(sub, b, r, v1.fresh, v2.fresh)
		o.combinePairs(sub, b, r, v1.fresh, v2.old)
		o.combinePairs(sub, b, r, v1.old, v2.fresh)
		o.combinePairs(sub, b, r, v1.old, v2.old)
		return
	}

	if len(v1.fresh) == 0 && len(v2.fresh) == 0 {
		return
	}
	// ΔP1 × (P2 \ ΔP2)
	o.combinePairs(sub, b, r, v1.fresh, v2.old)
	// (P1 \ ΔP1) × ΔP2
	o.combinePairs(sub, b, r, v1.old, v2.fresh)
	// ΔP1 × ΔP2
	o.combinePairs(sub, b, r, v1.fresh, v2.fresh)
}

// leftRun returns the sub-slice of the ascending packed-pair slice base
// whose pairs have node ID left on the left side.
func leftRun(base []uint64, left uint32) []uint64 {
	lo := sort.Search(len(base), func(i int) bool { return base[i]>>32 >= uint64(left) })
	n := sort.Search(len(base)-lo, func(i int) bool { return base[lo+i]>>32 > uint64(left) })
	return base[lo : lo+n]
}

// combinePairs joins every (left, right) pair that the IsFresh memo has
// not seen and prunes the resulting plans. A pair's join alternatives
// are enumerated by value into the optimizer's scratch and pruned from
// there; prune copies a plan into the arena only when it inserts it, so
// the alternatives it discards — nearly all of them — cost no memory
// (the paper's Lemma 5 and Section 5.2 bound what is generated and what
// is retained, not what is allocated).
//
// IsFresh consults the frozen base first: the base is ascending, so the
// pairs with l on the left are one contiguous run, narrowed once per l
// and binary-searched per rt. A cold optimizer has no base and goes
// straight to its own memo.
func (o *Optimizer) combinePairs(sub tableset.Set, b cost.Vector, r int, lefts, rights []*plan.Node) {
	if len(lefts) == 0 || len(rights) == 0 {
		return
	}
	for _, l := range lefts {
		run := leftRun(o.pairBase, l.ID())
		for _, rt := range rights {
			key := pairID(l, rt)
			_, stale := slices.BinarySearch(run, key)
			if !stale {
				_, stale = o.pairMemo[key]
			}
			if stale {
				o.stats.PairsSkippedStale++
				continue
			}
			o.pairMemo[key] = struct{}{}
			o.stats.PairsCombined++
			if o.cfg.Hooks.PairCombined != nil {
				o.cfg.Hooks.PairCombined(l, rt)
			}
			o.altNodes, o.altFloats = o.cfg.Model.JoinAlternativesInto(o.altNodes, o.altFloats, o.q, l, rt)
			o.altsScratch = o.altsScratch[:0]
			for i := range o.altNodes {
				o.altsScratch = append(o.altsScratch, &o.altNodes[i])
			}
			o.altsKeep = o.frontierFilter(o.altsScratch, o.altsKeep)
			for i, p := range o.altsScratch {
				o.stats.PlansGenerated++
				if o.cfg.Hooks.PlanGenerated != nil {
					o.cfg.Hooks.PlanGenerated(p)
				}
				if !o.altsKeep[i] {
					// Dominated within its own alternative batch:
					// globally redundant (DESIGN.md D5).
					o.stats.ExactDominated++
					continue
				}
				o.prune(sub, b, r, p, true)
			}
		}
	}
}
