package query

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/tableset"
)

// CanonicalFingerprint returns a digest of the query's isomorphism
// class together with the table-ID permutation onto its canonical form.
// Two queries share the digest exactly when a bijection between their
// table sets exists that preserves per-table planning statistics
// (catalog cardinality, row width, index availability, sampling rates,
// filter selectivity) and maps join edges onto join edges with equal
// selectivities. Under such a bijection every plan's cost vector is
// unchanged, so optimizer state cached for one query is valid for the
// other after rewriting its table labels (core.Snapshot.Remap) — the
// service's cross-shape warm-start tier keys on this digest where the
// exact tier keys on Fingerprint.
//
// The returned permutation perm has length tableset.MaxTables;
// perm[id] is the canonical position in [0, NumTables) of member table
// id, and -1 for non-members. Composing one query's permutation with
// the inverse of another's (equal digests) yields the table-ID
// rewriting between them.
//
// Canonicalization runs iterative color refinement over (per-table
// stats signature, degree, incident-(selectivity, neighbor-color)
// multiset) and resolves residual ties — automorphisms or refinement-
// equivalent vertices — with a bounded individualization search that
// keeps the lexicographically smallest canonical encoding (DESIGN.md
// D11). The digest is sound unconditionally: it hashes the fully
// relabeled query, so equal digests imply a genuine stats-preserving
// isomorphism even if the tie-break budget is exhausted; exhaustion
// can only cost completeness (two isomorphic queries hashing apart, a
// missed cache hit, never a wrong one).
//
// Both are computed at the first call and remembered; every call
// returns the same permutation, which callers share and must not write.
func (q *Query) CanonicalFingerprint() (string, []int) {
	q.canonOnce.Do(func() { q.keys.CanonFP, q.keys.Perm = q.canonical() })
	return q.keys.CanonFP, q.keys.Perm
}

// canonical computes CanonicalFingerprint's digest and permutation.
func (q *Query) canonical() (string, []int) {
	c := newCanonicalizer(q)
	c.search(c.initial())
	perm := make([]int, tableset.MaxTables)
	for i := range perm {
		perm[i] = -1
	}
	for m, p := range c.bestPos {
		perm[c.ids[m]] = p
	}
	return hashText(c.best), perm
}

// ComposeRemap combines the canonical permutations of two queries that
// share a canonical digest into the table-ID rewriting from the first
// query's labeling to the second's: the result maps srcID → dstID
// whenever both occupy the same canonical position (and -1 outside the
// source query's tables). It is the permutation Snapshot.Remap needs to
// restore state cached under src's labeling into a session for dst.
// Positions present in src but absent from dst (possible only if the
// digests differ) return an error.
func ComposeRemap(src, dst []int) ([]int, error) {
	inv := make([]int, len(dst)) // canonical position → dst table ID
	for i := range inv {
		inv[i] = -1
	}
	for id, p := range dst {
		if p >= 0 {
			if p >= len(inv) {
				return nil, fmt.Errorf("query: canonical position %d out of range", p)
			}
			inv[p] = id
		}
	}
	out := make([]int, len(src))
	for id, p := range src {
		if p < 0 {
			out[id] = -1
			continue
		}
		if p >= len(inv) || inv[p] < 0 {
			return nil, fmt.Errorf("query: canonical permutations are incompatible at position %d", p)
		}
		out[id] = inv[p]
	}
	return out, nil
}

// tieBreakLeafBudget bounds the individualization-refinement search: at
// most this many complete canonical labelings are generated before the
// search keeps the best found so far. Automorphic tie classes (cliques,
// stars over identical tables) produce identical encodings on every
// branch, so one leaf suffices for them; the budget only matters for
// refinement-equivalent but non-automorphic vertices, which need
// |class|-factorial leaves in the worst case.
const tieBreakLeafBudget = 64

// canonAdj is one incident edge from a member's adjacency list, in
// member-index (not table-ID) space.
type canonAdj struct {
	other int
	sel   float64
}

// canonicalizer carries the refinement state. Member tables are
// addressed by their index in ids (ascending table ID); colors are
// dense ranks in [0, len(ids)), derived from invariant hashes so they
// never depend on the concrete table IDs.
type canonicalizer struct {
	q   *Query
	ids []int
	pos [tableset.MaxTables]int // table ID → member index
	adj [][]canonAdj

	// statSig is each member's planning-statistics signature
	// (Query.appendStatSig). It is the single source for both the
	// initial refinement coloring (hashed) and the canonical encoding
	// (verbatim), so the two can never drift apart.
	statSig [][]byte

	leaves  int
	best    []byte
	bestPos []int // member index → canonical position

	// scratch reused across refinement rounds, search branches and
	// leaf encodings.
	hashes []uint64
	pairs  []uint64
	uniq   []uint64
	enc    []byte
	inv    []int
	cedges []canonEdge
}

// canonEdge is one join edge between canonical positions a < b.
type canonEdge struct {
	a, b int
	sel  float64
}

func newCanonicalizer(q *Query) *canonicalizer {
	ids := q.tables.Indices()
	c := &canonicalizer{
		q:       q,
		ids:     ids,
		adj:     make([][]canonAdj, len(ids)),
		statSig: make([][]byte, len(ids)),
		hashes:  make([]uint64, len(ids)),
		inv:     make([]int, len(ids)),
	}
	for m, id := range ids {
		c.pos[id] = m
	}
	for _, e := range q.edges {
		a, b := c.pos[e.A], c.pos[e.B]
		c.adj[a] = append(c.adj[a], canonAdj{other: b, sel: e.Selectivity})
		c.adj[b] = append(c.adj[b], canonAdj{other: a, sel: e.Selectivity})
	}
	// The signatures share one buffer, each clipped to its own bytes.
	sigs := make([]byte, 0, 64*len(ids))
	for m, id := range ids {
		start := len(sigs)
		sigs = q.appendStatSig(sigs, id)
		c.statSig[m] = sigs[start:len(sigs):len(sigs)]
	}
	return c
}

func fnv64[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// initial returns the starting coloring: dense ranks of the per-table
// stats signatures.
func (c *canonicalizer) initial() []int {
	for m, sig := range c.statSig {
		c.hashes[m] = fnv64(sig)
	}
	return c.normalize(c.hashes, make([]int, len(c.ids)))
}

// normalize converts invariant hash values into dense color ranks
// 0..k-1 ordered by hash value. Hash values depend only on label-
// invariant inputs, so the rank order is itself invariant.
func (c *canonicalizer) normalize(hashes []uint64, dst []int) []int {
	c.uniq = append(c.uniq[:0], hashes...)
	slices.Sort(c.uniq)
	c.uniq = slices.Compact(c.uniq)
	for m, v := range hashes {
		dst[m], _ = slices.BinarySearch(c.uniq, v)
	}
	return dst
}

// refine runs color refinement to a fixed point: each round rehashes
// every member with its current color and the sorted multiset of
// (edge-selectivity, neighbor-color) pairs, then re-ranks. Including
// the member's own color makes the partition monotonically finer, so
// the round count is bounded by the member count.
func (c *canonicalizer) refine(colors []int) []int {
	n := len(c.ids)
	distinct := func(cs []int) int {
		max := -1
		for _, v := range cs {
			if v > max {
				max = v
			}
		}
		return max + 1
	}
	cur := distinct(colors)
	for round := 0; round < n && cur < n; round++ {
		for m := range c.ids {
			c.pairs = c.pairs[:0]
			for _, a := range c.adj[m] {
				// Pack (selectivity, neighbor color) so sorting the
				// packed words sorts the multiset canonically.
				c.pairs = append(c.pairs, mix64(math.Float64bits(a.sel), uint64(colors[a.other])))
			}
			slices.Sort(c.pairs)
			h := mix64(fnv64("r"), uint64(colors[m]))
			for _, p := range c.pairs {
				h = mix64(h, p)
			}
			c.hashes[m] = h
		}
		colors = c.normalize(c.hashes, colors)
		next := distinct(colors)
		if next == cur {
			break
		}
		cur = next
	}
	return colors
}

// search runs individualization-refinement: refine, and if the coloring
// is not yet discrete, branch on each member of the smallest ambiguous
// class (bounded by tieBreakLeafBudget complete labelings), keeping the
// lexicographically smallest canonical encoding over all leaves.
func (c *canonicalizer) search(colors []int) {
	colors = c.refine(colors)
	n := len(c.ids)
	counts := make([]int, n+1)
	for _, v := range colors {
		counts[v]++
	}
	// Discrete coloring: ranks are exactly the canonical positions.
	discrete := true
	for _, v := range colors {
		if counts[v] != 1 {
			discrete = false
			break
		}
	}
	if discrete {
		c.enc = c.encode(c.enc[:0], colors)
		if len(c.best) == 0 || bytes.Compare(c.enc, c.best) < 0 {
			c.best = append(c.best[:0], c.enc...)
			c.bestPos = append(c.bestPos[:0], colors...)
		}
		c.leaves++
		return
	}
	// Target the smallest ambiguous class (ties broken by color rank —
	// both invariant choices).
	target, size := -1, n+1
	for v, cnt := range counts {
		if cnt > 1 && cnt < size {
			target, size = v, cnt
		}
	}
	k := 0
	for _, v := range colors {
		if k <= v {
			k = v + 1
		}
	}
	for m, v := range colors {
		if v != target {
			continue
		}
		if c.leaves >= tieBreakLeafBudget && len(c.best) > 0 {
			return
		}
		child := append([]int(nil), colors...)
		child[m] = k // individualize: a fresh color splits m off its class
		c.search(child)
	}
}

// encode appends the query relabeled to canonical positions: per
// position "t<position>:<stats signature>;", then per edge in
// canonical order "e<a>-<b>:<selectivity>;" (the text fmt rendered when
// the digest was defined). The encoding fully determines the relabeled
// query, which is what makes the digest sound: equal encodings imply a
// stats- and edge-preserving bijection through the canonical positions.
func (c *canonicalizer) encode(dst []byte, pos []int) []byte {
	for m, p := range pos {
		c.inv[p] = m
	}
	for p, m := range c.inv {
		dst = strconv.AppendInt(append(dst, 't'), int64(p), 10)
		dst = append(append(append(dst, ':'), c.statSig[m]...), ';')
	}
	edges := c.cedges[:0]
	for _, e := range c.q.edges {
		a, b := pos[c.pos[e.A]], pos[c.pos[e.B]]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, canonEdge{a: a, b: b, sel: e.Selectivity})
	}
	slices.SortFunc(edges, func(x, y canonEdge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		if c := cmp.Compare(x.b, y.b); c != 0 {
			return c
		}
		return cmp.Compare(x.sel, y.sel)
	})
	c.cedges = edges
	for _, e := range edges {
		dst = appendEdge(dst, e.a, e.b)
		dst = append(appendFloat(append(dst, ':'), e.sel), ';')
	}
	return dst
}
