package query

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
)

// Fingerprint returns a canonical digest of everything that determines
// the optimizer's search space for the query: the member table IDs with
// their catalog statistics (cardinality, row width, index availability,
// sampling rates), the per-table filter selectivities, and the join
// edges with their selectivities in canonical order. Two queries with
// equal fingerprints present byte-identical inputs to the optimizer, so
// plan-set state computed for one (core.Snapshot) is valid verbatim for
// the other; the service's warm-start cache keys on this.
//
// The digest deliberately ignores the query name and the declaration
// order of edges, filters, and tables (none affect planning) but not
// the table IDs themselves: cached plans carry concrete table IDs, so
// isomorphic queries over permuted IDs must hash differently here.
// Cross-shape reuse — sharing state between queries that are the same
// join graph under a table-ID permutation — goes through
// CanonicalFingerprint plus core.Snapshot.Remap instead.
//
// The digest is computed at the first call and remembered.
func (q *Query) Fingerprint() string {
	q.fpOnce.Do(func() { q.keys.FP = q.fingerprint() })
	return q.keys.FP
}

// fingerprint computes Fingerprint's digest.
func (q *Query) fingerprint() string {
	var buf [1024]byte
	return hashText(q.appendFingerprint(buf[:0]))
}

// appendFingerprint appends the text Fingerprint hashes: per member
// table "t<id>:<stats signature>;", then per edge in canonical order
// "e<a>-<b>:<selectivity>;". The digests are persisted store keys, so
// the text is byte for byte what fmt's %d, %g and %v rendered when the
// digest was defined.
func (q *Query) appendFingerprint(dst []byte) []byte {
	for s := q.tables; !s.IsEmpty(); {
		id := s.Min()
		s = s.Remove(id)
		dst = strconv.AppendInt(append(dst, 't'), int64(id), 10)
		dst = append(q.appendStatSig(append(dst, ':'), id), ';')
	}
	var buf [16]JoinEdge
	edges := append(buf[:0], q.edges...)
	for i, e := range edges {
		if e.A > e.B {
			edges[i].A, edges[i].B = e.B, e.A
		}
	}
	slices.SortFunc(edges, func(x, y JoinEdge) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		if c := cmp.Compare(x.B, y.B); c != 0 {
			return c
		}
		return cmp.Compare(x.Selectivity, y.Selectivity)
	})
	for _, e := range edges {
		dst = appendEdge(dst, e.A, e.B)
		dst = append(appendFloat(append(dst, ':'), e.Selectivity), ';')
	}
	return dst
}

// appendStatSig appends table id's planning-statistics signature,
// "<rows>:<row width>:<has index>:<filter selectivity>:[<rate>,…]" with
// the sampling rates ascending. Fingerprint and the canonical encoding
// both render a table's statistics through it.
func (q *Query) appendStatSig(dst []byte, id int) []byte {
	t := q.catalog.Table(id)
	dst = append(appendFloat(dst, t.Rows), ':')
	dst = append(appendFloat(dst, t.RowWidth), ':')
	dst = append(strconv.AppendBool(dst, t.HasIndex), ':')
	dst = append(appendFloat(dst, q.FilterSelectivity(id)), ":["...)
	rates := t.SamplingRates
	if !slices.IsSorted(rates) {
		rates = append([]float64(nil), rates...)
		sort.Float64s(rates)
	}
	for _, r := range rates {
		dst = append(appendFloat(dst, r), ',')
	}
	return append(dst, ']')
}

// appendFloat appends f as fmt's %g renders it: strconv's shortest 'g'
// form, so 1e-07 and 1e+21 in exponent form.
func appendFloat(dst []byte, f float64) []byte {
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendEdge appends "e<a>-<b>".
func appendEdge(dst []byte, a, b int) []byte {
	dst = strconv.AppendInt(append(dst, 'e'), int64(a), 10)
	return strconv.AppendInt(append(dst, '-'), int64(b), 10)
}

// hashText is the hex SHA-256 of a fingerprint's text.
func hashText(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}
