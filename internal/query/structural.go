package query

import (
	"cmp"
	"slices"
	"strconv"
)

// StructuralFingerprint digests only the parts of the query the
// statistics cannot change: the member tables (by ID and name) and the
// join-edge topology. Everything Fingerprint additionally hashes —
// cardinalities, row widths, index availability, sampling rates, filter
// and join selectivities — is deliberately excluded, so a query keeps
// its structural digest across statistics epochs while its exact (and
// canonical) fingerprints move.
//
// The warm-start cache uses this as its drift tier: an exact/canonical
// miss that still hits structurally has found plan state for the same
// query under superseded statistics, which drift classification then
// routes to re-cost, resumed refinement, or quarantine
// (core.Snapshot.ClassifyDrift). Table names are included so two
// different catalogs that happen to assign the same IDs do not collide.
// The digest is computed at the first call and remembered.
func (q *Query) StructuralFingerprint() string {
	q.structOnce.Do(func() { q.keys.StructFP = q.structural() })
	return q.keys.StructFP
}

// structural computes StructuralFingerprint's digest.
func (q *Query) structural() string {
	var buf [512]byte
	return hashText(q.appendStructural(buf[:0]))
}

// appendStructural appends the text StructuralFingerprint hashes: per
// member table "t<id>:<name>;", then per edge in ascending order
// "e<a>-<b>;".
func (q *Query) appendStructural(dst []byte) []byte {
	for s := q.tables; !s.IsEmpty(); {
		id := s.Min()
		s = s.Remove(id)
		dst = strconv.AppendInt(append(dst, 't'), int64(id), 10)
		dst = append(append(append(dst, ':'), q.catalog.Table(id).Name...), ';')
	}
	type pair struct{ a, b int }
	var buf [16]pair
	edges := buf[:0]
	for _, e := range q.edges {
		p := pair{e.A, e.B}
		if p.a > p.b {
			p.a, p.b = p.b, p.a
		}
		edges = append(edges, p)
	}
	slices.SortFunc(edges, func(x, y pair) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	for _, e := range edges {
		dst = append(appendEdge(dst, e.a, e.b), ';')
	}
	return dst
}
