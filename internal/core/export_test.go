package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// This file opens the package's internals to the external tests of
// package core_test, which import snapcodec (itself an importer of core).

// deepDetach is the detach walk exports used before they shared the
// nodes of a restored snapshot: a copy of every distinct node, IDs and
// sub-plan sharing preserved. It is the reference the sharing export is
// checked against.
func deepDetach(memo map[*plan.Node]*plan.Node, n *plan.Node) *plan.Node {
	if n == nil {
		return nil
	}
	if c, ok := memo[n]; ok {
		return c
	}
	c := new(plan.Node)
	*c = *n
	c.Cost = n.Cost.Clone()
	memo[n] = c
	c.Left = deepDetach(memo, n.Left)
	c.Right = deepDetach(memo, n.Right)
	return c
}

// ReferenceSnapshot is Snapshot as it was before exports shared
// anything: every plan set enumerated and every node deep-copied.
func ReferenceSnapshot(o *Optimizer) *Snapshot {
	s := o.Snapshot()
	ref := &Snapshot{
		res:        map[tableset.Set][]rangeindex.Entry{},
		cand:       map[tableset.Set][]rangeindex.Entry{},
		pairs:      s.pairs,
		nextID:     s.nextID,
		epoch:      s.epoch,
		prevBounds: s.prevBounds,
		prevRes:    s.prevRes,
		done:       s.done,
		cfgEcho:    s.cfgEcho,
		tableStats: s.tableStats,
		edgeStats:  s.edgeStats,
		statsEpoch: s.statsEpoch,
	}
	copies := map[*plan.Node]*plan.Node{}
	for _, sets := range [...]struct {
		src map[tableset.Set]*rangeindex.Index
		dst map[tableset.Set][]rangeindex.Entry
	}{{o.res, ref.res}, {o.cand, ref.cand}} {
		for sub, ix := range sets.src {
			if ix.Len() == 0 {
				continue
			}
			var entries []rangeindex.Entry
			ix.All(func(e rangeindex.Entry) bool {
				e.Payload = deepDetach(copies, e.Payload)
				e.Cost = e.Payload.Cost
				entries = append(entries, e)
				return true
			})
			sets.dst[sub] = entries
		}
	}
	return ref
}

// FrozenSets returns the table sets whose result and candidate indexes
// still hold the image they adopted at restore (no write since).
func FrozenSets(o *Optimizer) (res, cand []tableset.Set) {
	for sub, ix := range o.res {
		if ix.Frozen() != nil {
			res = append(res, sub)
		}
	}
	for sub, ix := range o.cand {
		if ix.Frozen() != nil {
			cand = append(cand, sub)
		}
	}
	return res, cand
}

// Frontiers returns the prefix skylines of s's root result list: nil
// until its first restore builds them, unless an export carried them.
func Frontiers(s *Snapshot) [][]*plan.Node { return s.frontiers }

// RemapQueryPair returns two isomorphic queries, their configuration
// and the permutation that rewrites the first's snapshots onto the
// second.
func RemapQueryPair(t *testing.T) (src, dst *query.Query, cfg Config, perm []int) {
	src, dst, cfg = remapQueryPair(t)
	return src, dst, cfg, remapPermBetween(t, src, dst)
}

// DriftQueryPair returns a query, the same query under statistics that
// drifted slightly, and their configuration.
func DriftQueryPair(t *testing.T) (old, drifted *query.Query, cfg Config) {
	old = driftQuery(remapCatalog(), 0.5, 1e-3)
	drifted = driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 1.01e6}), 0.5, 1e-3)
	return old, drifted, driftConfig()
}

// LargeDriftQueryPair returns a query, the same query under statistics
// that drifted far enough for a resumed refinement, and their
// configuration.
func LargeDriftQueryPair(t *testing.T) (old, drifted *query.Query, cfg Config) {
	old = driftQuery(remapCatalog(), 0.5, 1e-3)
	drifted = driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 4e6}), 0.5, 1e-3)
	return old, drifted, driftConfig()
}
