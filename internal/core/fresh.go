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
// dropped when another plan makes it redundant and either differs from
// it in cost or has the smaller index (so that exactly one
// representative of each tie group survives). Joining a dropped plan
// can never produce anything its dominator's join would not dominate,
// so dropping is sound; it keeps pair formation quadratic in the
// frontier size rather than in the accumulated result-set size. It
// serves the visible sets of Fresh and each pair's batch of join
// alternatives.
//
// The drop relation is a strict partial order (transitive and
// irreflexive), so every dropped plan is dropped by a kept one, and
// every plan that drops another sorts ahead of it by (lexicographic
// cost, index). A sweep in that order therefore only compares each plan
// with the plans already kept (DESIGN.md D6), and there non-strict
// dominance suffices: a kept plan of equal cost has the smaller index.
//
// The verdicts are written into the caller-owned keep scratch slice
// (grown as needed), in the original order, and the possibly-
// reallocated slice is returned; the caller stores it back into the
// scratch field it came from.
func (o *Optimizer) frontierFilter(all []*plan.Node, keep []bool) []bool {
	keep = keep[:0]
	for range all {
		keep = append(keep, true)
	}
	if o.cfg.DisableVisibleFrontierFilter {
		return keep
	}
	keys := o.sortKeys[:0]
	for i, p := range all {
		keys = append(keys, sortKey{p.Cost[0], int32(i)})
	}
	sortByCost(all, keys)
	kept := o.sweepKept[:0]
	for _, k := range keys {
		p := all[k.i]
		// Nearest first: the plans kept last lie closest in cost.
		for j := len(kept) - 1; j >= 0; j-- {
			if o.recRedundant(&kept[j], p) {
				keep[k.i] = false
				break
			}
		}
		if keep[k.i] {
			kept = append(kept, recOf(p))
		}
	}
	o.sortKeys, o.sweepKept = keys, kept
	return keep
}

// sortKey is one plan of frontierFilter's input: its index and its first
// cost component, which settles most comparisons without a pointer
// chase.
type sortKey struct {
	c0 float64
	i  int32
}

// insertionSortMax is the largest input sortByCost sorts by insertion.
// A pair's alternative batch (|joinOps| × |Degrees| = 12 plans) lies
// below it, most visible sets above. On BenchmarkFrontierFilter's
// sort/ sub-benchmarks insertion sort led by 20–30 % at 32 plans and
// pdqsort by 10–15 % at 64; at 48 the lead changed sides between runs.
const insertionSortMax = 32

// sortByCost sorts keys, which index into all, by the plans' costs in
// lexicographic order, ties by index. Costs are finite, so plain float
// comparisons order them.
func sortByCost(all []*plan.Node, keys []sortKey) {
	if len(keys) <= insertionSortMax {
		insertionSortByCost(all, keys)
	} else {
		pdqSortByCost(all, keys)
	}
}

// insertionSortByCost is sortByCost for short inputs.
func insertionSortByCost(all []*plan.Node, keys []sortKey) {
	for i := 1; i < len(keys); i++ {
		v := keys[i]
		j := i
		for ; j > 0 && compareKeys(all, v, keys[j-1]) < 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = v
	}
}

// pdqSortByCost is sortByCost for long inputs.
func pdqSortByCost(all []*plan.Node, keys []sortKey) {
	slices.SortFunc(keys, func(a, b sortKey) int { return compareKeys(all, a, b) })
}

// compareKeys orders two keys of all by (lexicographic cost, index).
func compareKeys(all []*plan.Node, a, b sortKey) int {
	if a.c0 != b.c0 {
		if a.c0 < b.c0 {
			return -1
		}
		return 1
	}
	x, y := all[a.i].Cost, all[b.i].Cost
	for d := 1; d < len(x); d++ {
		if x[d] != y[d] {
			if x[d] < y[d] {
				return -1
			}
			return 1
		}
	}
	return int(a.i - b.i)
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

	// A pair with a fresh member is new: its member entered the result
	// set in this invocation, so no earlier one can have combined it.
	if !deltaOK {
		// Δ = S: consider the full cross product, memo-guarded where
		// both members are old.
		o.combinePairs(sub, b, r, v1.fresh, v2.fresh, true)
		o.combinePairs(sub, b, r, v1.fresh, v2.old, true)
		o.combinePairs(sub, b, r, v1.old, v2.fresh, true)
		o.combinePairs(sub, b, r, v1.old, v2.old, false)
		return
	}

	if len(v1.fresh) == 0 && len(v2.fresh) == 0 {
		return
	}
	// ΔP1 × (P2 \ ΔP2)
	o.combinePairs(sub, b, r, v1.fresh, v2.old, true)
	// (P1 \ ΔP1) × ΔP2
	o.combinePairs(sub, b, r, v1.old, v2.fresh, true)
	// ΔP1 × ΔP2
	o.combinePairs(sub, b, r, v1.fresh, v2.fresh, true)
}

// leftRun returns the sub-slice of the ascending packed-pair slice base
// whose pairs have node ID left on the left side.
func leftRun(base []uint64, left uint32) []uint64 {
	lo := sort.Search(len(base), func(i int) bool { return base[i]>>32 >= uint64(left) })
	n := sort.Search(len(base)-lo, func(i int) bool { return base[lo+i]>>32 > uint64(left) })
	return base[lo : lo+n]
}

// foldPairs sorts the pair log and merges it with the base into a new
// base. The old base is never written: snapshots and the optimizers
// restored from them may share it.
func (o *Optimizer) foldPairs() {
	if len(o.pairLog) == 0 {
		return
	}
	slices.Sort(o.pairLog)
	base, log := o.pairBase, o.pairLog
	merged := make([]uint64, 0, len(base)+len(log))
	for len(base) > 0 && len(log) > 0 {
		if base[0] < log[0] {
			merged, base = append(merged, base[0]), base[1:]
		} else {
			merged, log = append(merged, log[0]), log[1:]
		}
	}
	merged = append(merged, base...)
	o.pairBase, o.pairLog = append(merged, log...), o.pairLog[:0]
}

// combinePairs joins every (left, right) pair that the IsFresh memo has
// not seen and prunes the resulting plans. A pair's join alternatives
// are enumerated by value into the optimizer's scratch and pruned from
// there; prune copies a plan into the arena only when it inserts it, so
// the alternatives it discards — nearly all of them — cost no memory
// (the paper's Lemma 5 and Section 5.2 bound what is generated and what
// is retained, not what is allocated).
//
// IsFresh searches the base alone, which the invocation folded the log
// into first (refine): the pairs with l on the left are one contiguous
// run, narrowed once per l and binary-searched per rt. Within one
// invocation a pair is never looked up after being combined: it belongs
// to one ordered split, whose four fresh/old blocks are disjoint. When
// fresh says one side holds only plans this invocation inserted, no
// lookup can hit: a result plan is paired only once it is visible as a
// result, results enter only through prune, and prune registers them
// with the invocation's epoch — a drained candidate promoted now was
// never a result before. Such pairs go straight to the log.
//
// What the enumeration reads of the two table sets alone — the union,
// the logical output rows, the merge keys — is prepared once per split
// (costmodel.Split), on the split's first fresh pair, so a split whose
// pairs are all memo-stale pays nothing for it.
func (o *Optimizer) combinePairs(sub tableset.Set, b cost.Vector, r int, lefts, rights []*plan.Node, fresh bool) {
	if len(lefts) == 0 || len(rights) == 0 {
		return
	}
	for _, l := range lefts {
		var run []uint64
		if !fresh {
			run = leftRun(o.pairBase, l.ID())
		}
		for _, rt := range rights {
			key := pairID(l, rt)
			if !fresh {
				if _, stale := slices.BinarySearch(run, key); stale {
					o.stats.PairsSkippedStale++
					continue
				}
			}
			o.pairLog = append(o.pairLog, key)
			o.stats.PairsCombined++
			if o.cfg.Hooks.PairCombined != nil {
				o.cfg.Hooks.PairCombined(l, rt)
			}
			if o.split.Left != l.Tables || o.split.Right != rt.Tables {
				o.split = o.cfg.Model.NewSplit(o.q, l.Tables, rt.Tables)
			}
			o.altNodes, o.altFloats = o.cfg.Model.JoinAlternativesInto(o.altNodes, o.altFloats, &o.split, l, rt)
			o.pairL, o.pairR = l, rt
			// The pointers into altNodes stay valid from pair to pair;
			// they are retaken only when the enumeration regrew the
			// scratch or initScans borrowed altsScratch.
			if len(o.altsScratch) != len(o.altNodes) || o.altsScratch[0] != &o.altNodes[0] {
				o.altsScratch = o.altsScratch[:0]
				for i := range o.altNodes {
					o.altsScratch = append(o.altsScratch, &o.altNodes[i])
				}
			}
			o.altsKeep = o.frontierFilter(o.altsScratch, o.altsKeep)
			for i, p := range o.altsScratch {
				o.stats.PlansGenerated++
				if o.cfg.Hooks.PlanGenerated != nil {
					// The hook sees a complete plan; the scratch
					// stays childless.
					p.Left, p.Right = l, rt
					o.cfg.Hooks.PlanGenerated(p)
					p.Left, p.Right = nil, nil
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
