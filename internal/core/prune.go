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
// buffers, and the result set answers one typed question, the range
// index's order-aware dominance probe, rather than handing every entry
// of the box to a visitor (DESIGN.md D9).
//
// scratch says p lives in the enumeration scratch of combinePairs,
// without its sub-plans, which are the pair combinePairs recorded
// (pairL, pairR). Such a plan is copied into the arena (receiving its
// dense ID and its sub-plans) only on the two branches that keep it. The
// discard branches therefore touch no heap and store no pointer, and
// the keeping branches pay one arena bump plus amortized growth of the
// index cell.
func (o *Optimizer) prune(sub tableset.Set, b cost.Vector, r int, p *plan.Node, scratch bool) {
	o.stats.PruneCalls++
	if o.witnessDominates(sub, p) {
		o.stats.WitnessHits++
		o.stats.ExactDominated++
		return
	}
	alpha := o.cfg.AlphaFor(r)
	scaled := p.Cost.ScaleInto(o.scaledScratch, alpha)

	// One probe serves both checks. A result plan pA approximates p iff
	// c(pA) ⪯ α_r·c(p); since pA must also respect the bounds, the
	// query box is the component-wise minimum of both vectors. Exact
	// dominators (c(pA) ⪯ c(p), order covered, rows ≤) lie inside the
	// same box whenever they respect the bounds themselves.
	queryBound := scaled.MinInto(o.boundScratch, b)
	maxRes := r
	if o.cfg.PruneAgainstAll {
		maxRes = o.cfg.MaxResolution()
	}
	var exact *plan.Node
	approximated := false
	if ix, ok := o.res[sub]; ok {
		var visited int
		exact, approximated, visited = ix.Dominance(queryBound, maxRes, p,
			!o.cfg.DisableOrderAwarePruning, o.cfg.RetainDominatedCandidates)
		o.stats.DominanceChecks += visited
	}

	resolution, toCand := r, false
	switch {
	case exact != nil:
		o.noteWitness(exact)
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

// materialize copies a scratch plan and its cost vector into the arena,
// with the pair combinePairs is enumerating as its sub-plans.
func (o *Optimizer) materialize(p *plan.Node) *plan.Node {
	n := *p
	n.Left, n.Right = o.pairL, o.pairR
	n.Cost = o.arena.NewVector(len(p.Cost))
	copy(n.Cost, p.Cost)
	o.stats.PlansMaterialized++
	return o.arena.NewNode(n)
}

// witnessCap bounds the witness set. Exact dominators repeat heavily
// within one table set (the alternatives of neighbouring pairs fall
// under the same few result plans), so a handful of recent ones settles
// most discards; a miss costs witnessCap comparisons before the probe.
const witnessCap = 8

// witnessDominates reports whether one of the recent exact dominators
// of sub's plans dominates p exactly too, moving the one that does to
// the front. It answers what the dominance probe of prune would: a
// witness w was found by a probe of this invocation, so it is a result
// plan of sub (result plans are never removed) registered for a
// resolution the probe admits with c(w) ⪯ b; if also w.Order ⊒ p.Order,
// w.Rows ≤ p.Rows and c(w) ⪯ c(p) ⪯ α_r·c(p), then w lies in p's query
// box and the probe would have reached the exact verdict on w or on an
// entry before it. RetainDominatedCandidates has no exact verdict, so it
// never records a witness and the probe finds the set empty.
func (o *Optimizer) witnessDominates(sub tableset.Set, p *plan.Node) bool {
	if o.witSub != sub {
		o.witSub, o.witN = sub, 0
		return false
	}
	for i := range o.witN {
		o.stats.DominanceChecks++
		if w := &o.witnesses[i]; o.recRedundant(w, p) {
			hit := *w
			copy(o.witnesses[1:i+1], o.witnesses[:i])
			o.witnesses[0] = hit
			return true
		}
	}
	return false
}

// noteWitness records w, which the dominance probe just found to
// dominate a plan of table set witSub exactly, as the most recent
// witness.
func (o *Optimizer) noteWitness(w *plan.Node) {
	if o.witN < witnessCap {
		o.witN++
	}
	copy(o.witnesses[1:o.witN], o.witnesses[:o.witN-1])
	o.witnesses[0] = recOf(w)
}

// planRec is what the redundancy test reads of a plan, by value: the
// witness set and the frontier filter's sweep keep their plans as
// records, so they hold no pointer — recording one stores none, and
// testing one chases none.
type planRec struct {
	rows  float64
	order plan.Order
	cost  [rangeindex.MaxDims]float64
}

// recOf returns q's record.
func recOf(q *plan.Node) planRec {
	r := planRec{rows: q.Rows, order: q.Order}
	copy(r.cost[:], q.Cost)
	return r
}

// recRedundant reports whether the plan q recorded in rec makes plan p
// redundant: q can stand in for p (its order covers p's, unless
// DisableOrderAwarePruning), it produces no more rows, and its cost
// dominates p's. Joining p can then produce nothing the same join of q
// would not dominate (DESIGN.md D5, D6). The relation is transitive.
// The range index's dominance probe asks the same of its entries.
func (o *Optimizer) recRedundant(rec *planRec, p *plan.Node) bool {
	if rec.rows > p.Rows || !rec.order.Covers(p.Order) && !o.cfg.DisableOrderAwarePruning {
		return false
	}
	qc := rec.cost[:len(p.Cost)]
	for d, c := range p.Cost {
		if qc[d] > c {
			return false
		}
	}
	return true
}
