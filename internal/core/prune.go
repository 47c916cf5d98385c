package core

import (
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// prune implements procedure Prune of Algorithm 3: decide whether plan p
// for table set sub enters the result set, is deferred as a candidate, or
// is discarded.
//
//   - If an existing result plan dominates p at factor 1, covers its
//     order and produces no more rows, p is globally redundant and is
//     discarded outright (DESIGN.md D5; the paper's pseudo-code would
//     park it as a candidate, which balloons the candidate pool with
//     plans that can never become relevant under any bounds).
//   - Else if a result plan within the current focus approximates p at
//     factor α_r (covering p's interesting order), p is deferred to
//     resolution r+1 — at a finer resolution the two plans may become
//     distinguishable — or discarded when r is already maximal.
//   - Else if p exceeds the bounds, p is kept as a candidate for the
//     current resolution: it may become relevant when the user relaxes
//     the bounds.
//   - Else p joins the result set, registered for resolution r and the
//     current epoch.
//
// Design notes mirrored from the paper (Section 4.2): p is compared only
// against result plans registered for resolutions ≤ r, keeping the
// comparison count proportional to the current resolution; and result
// plans dominated by p are never removed, because other plans may already
// reference them as sub-plans.
//
// prune is the single hottest procedure of the system (every generated
// plan passes through it), so it works exclusively on per-optimizer
// scratch state: the scaled vector and the query box live in reusable
// buffers, and the range query dispatches through the pre-allocated
// pruneVisit visitor rather than a per-call closure (DESIGN.md D9).
//
// scratch says p lives in the enumeration scratch of combinePairs, not
// in the arena; such a plan is copied into the arena (receiving its
// dense ID) only on the two branches that keep it. The discard branches
// therefore touch no heap at all, and the keeping branches pay one
// arena bump plus amortized growth of the index cell.
func (o *Optimizer) prune(sub tableset.Set, b cost.Vector, r int, p *plan.Node, scratch bool) {
	o.stats.PruneCalls++
	if o.witnessDominates(sub, p) {
		o.stats.WitnessHits++
		o.stats.ExactDominated++
		return
	}
	alpha := o.cfg.AlphaFor(r)
	scaled := p.Cost.ScaleInto(o.scaledScratch, alpha)

	// One range query serves both checks. A result plan pA approximates
	// p iff c(pA) ⪯ α_r·c(p); since pA must also respect the bounds,
	// the query box is the component-wise minimum of both vectors.
	// Exact dominators (c(pA) ⪯ c(p), order covered, rows ≤) lie inside
	// the same box whenever they respect the bounds themselves.
	queryBound := scaled.MinInto(o.boundScratch, b)
	maxRes := r
	if o.cfg.PruneAgainstAll {
		maxRes = o.cfg.MaxResolution()
	}
	o.pruneP, o.pruneExact, o.pruneAppr = p, false, false
	if ix, ok := o.res[sub]; ok {
		ix.Query(queryBound, maxRes, 0, o.pruneVisit)
	}
	exact, approximated := o.pruneExact, o.pruneAppr
	o.pruneP = nil

	resolution, toCand := r, false
	switch {
	case exact:
		o.stats.ExactDominated++
		return
	case approximated:
		if r == o.cfg.MaxResolution() {
			o.stats.CandidateDiscards++
			return
		}
		resolution, toCand = r+1, true
		o.stats.CandidateInserts++
	case !p.Cost.WithinBounds(b):
		toCand = true
		o.stats.CandidateInserts++
	default:
		o.stats.ResultInserts++
		o.resTop = max(o.resTop, resolution)
	}
	if scratch {
		p = o.materialize(p)
	}
	ix := o.resFor(sub)
	if toCand {
		ix = o.candFor(sub)
	}
	// The entry is new to every focus that reaches its level: those
	// foci are no longer covered by the ledger.
	clear(o.done[resolution:])
	ix.Insert(rangeindex.Entry{
		Cost:       p.Cost,
		Resolution: resolution,
		Epoch:      o.epoch,
		Payload:    p,
	})
}

// materialize copies a scratch plan and its cost vector into the arena.
func (o *Optimizer) materialize(p *plan.Node) *plan.Node {
	n := *p
	n.Cost = o.arena.NewVector(len(p.Cost))
	copy(n.Cost, p.Cost)
	o.stats.PlansMaterialized++
	return o.arena.NewNode(n)
}

// witnessCap bounds the witness set. Exact dominators repeat heavily
// within one table set (the alternatives of neighbouring pairs fall
// under the same few result plans), so a handful of recent ones settles
// most discards; a miss costs witnessCap comparisons before the query.
const witnessCap = 8

// witnessDominates reports whether one of the recent exact dominators
// of sub's plans dominates p exactly too, moving the one that does to
// the front. It answers what the range query of prune would: a witness
// w was retrieved by a query of this invocation, so it is a result plan
// of sub (result plans are never removed) registered for a resolution
// the query admits with c(w) ⪯ b; if also w.Order ⊒ p.Order,
// w.Rows ≤ p.Rows and c(w) ⪯ c(p) ⪯ α_r·c(p), then w lies in p's query
// box and the visitor would have reached the exact verdict on w or on
// an entry before it. RetainDominatedCandidates has no exact verdict,
// so it never records a witness and the probe finds the set empty.
func (o *Optimizer) witnessDominates(sub tableset.Set, p *plan.Node) bool {
	if o.witSub != sub {
		o.witSub, o.witN = sub, 0
		return false
	}
	for i, w := range o.witnesses[:o.witN] {
		o.stats.DominanceChecks++
		if o.redundant(w, p) {
			copy(o.witnesses[1:i+1], o.witnesses[:i])
			o.witnesses[0] = w
			return true
		}
	}
	return false
}

// noteWitness records w, which the range query just found to dominate a
// plan of table set witSub exactly, as the most recent witness.
func (o *Optimizer) noteWitness(w *plan.Node) {
	if o.witN < witnessCap {
		o.witN++
	}
	copy(o.witnesses[1:o.witN], o.witnesses[:o.witN-1])
	o.witnesses[0] = w
}

// redundant reports whether plan q makes plan p redundant: q can stand
// in for p (its order covers p's, unless DisableOrderAwarePruning), it
// produces no more rows, and its cost dominates p's. Joining p can then
// produce nothing the same join of q would not dominate (DESIGN.md D5,
// D6). The relation is transitive.
func (o *Optimizer) redundant(q, p *plan.Node) bool {
	if q.Rows > p.Rows || !q.Order.Covers(p.Order) && !o.cfg.DisableOrderAwarePruning {
		return false
	}
	// q.Cost.Dominates(p.Cost), spelled out so that the test inlines.
	pc := p.Cost[:len(q.Cost)]
	for d, c := range q.Cost {
		if c > pc[d] {
			return false
		}
	}
	return true
}
