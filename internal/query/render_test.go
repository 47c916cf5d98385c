package query

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// The fingerprints are persisted store keys, so their text must stay
// byte for byte what it was when they were defined with fmt. The
// functions below are that fmt rendering, kept as the reference the
// strconv rendering is checked against.

// fmtStatSig is a table's statistics signature as fmt rendered it.
func fmtStatSig(q *Query, id int) string {
	t := q.catalog.Table(id)
	var b strings.Builder
	fmt.Fprintf(&b, "%g:%g:%v:%g:[", t.Rows, t.RowWidth, t.HasIndex, q.FilterSelectivity(id))
	rates := append([]float64(nil), t.SamplingRates...)
	sort.Float64s(rates)
	for _, r := range rates {
		fmt.Fprintf(&b, "%g,", r)
	}
	b.WriteString("]")
	return b.String()
}

// fmtFingerprint is Fingerprint's text as fmt rendered it.
func fmtFingerprint(q *Query) string {
	var b strings.Builder
	q.tables.ForEach(func(id int) {
		fmt.Fprintf(&b, "t%d:%s;", id, fmtStatSig(q, id))
	})
	edges := append([]JoinEdge(nil), q.edges...)
	for i, e := range edges {
		if e.A > e.B {
			edges[i].A, edges[i].B = e.B, e.A
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		if edges[i].B != edges[j].B {
			return edges[i].B < edges[j].B
		}
		return edges[i].Selectivity < edges[j].Selectivity
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d-%d:%g;", e.A, e.B, e.Selectivity)
	}
	return b.String()
}

// fmtStructural is StructuralFingerprint's text as fmt rendered it.
func fmtStructural(q *Query) string {
	var b strings.Builder
	q.tables.ForEach(func(id int) {
		fmt.Fprintf(&b, "t%d:%s;", id, q.catalog.Table(id).Name)
	})
	type pair struct{ a, b int }
	edges := make([]pair, 0, len(q.edges))
	for _, e := range q.edges {
		p := pair{e.A, e.B}
		if p.a > p.b {
			p.a, p.b = p.b, p.a
		}
		edges = append(edges, p)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d-%d;", e.a, e.b)
	}
	return b.String()
}

// fmtEncode is the canonical encoding of q's members ids (ascending
// table IDs) placed at canonical positions pos, as fmt rendered it.
func fmtEncode(q *Query, ids, pos []int) string {
	inv := make([]int, len(ids))
	member := map[int]int{}
	for m, p := range pos {
		inv[p] = m
		member[ids[m]] = m
	}
	var b strings.Builder
	for p := range inv {
		fmt.Fprintf(&b, "t%d:%s;", p, fmtStatSig(q, ids[inv[p]]))
	}
	type cedge struct {
		a, b int
		sel  float64
	}
	edges := make([]cedge, 0, len(q.edges))
	for _, e := range q.edges {
		a, b2 := pos[member[e.A]], pos[member[e.B]]
		if a > b2 {
			a, b2 = b2, a
		}
		edges = append(edges, cedge{a: a, b: b2, sel: e.Selectivity})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		if edges[i].b != edges[j].b {
			return edges[i].b < edges[j].b
		}
		return edges[i].sel < edges[j].sel
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e%d-%d:%g;", e.a, e.b, e.sel)
	}
	return b.String()
}

// RenderingMismatch compares every text q's three digests hash with its
// fmt reference — the exact and structural fingerprints, each member's
// statistics signature, and the canonical encoding at the chosen
// positions and at rng's random ones — and describes the first
// difference, or returns "" when there is none. The digests are
// compared too.
func RenderingMismatch(q *Query, rng *rand.Rand) string {
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	if got, want := string(q.appendFingerprint(nil)), fmtFingerprint(q); got != want {
		return fmt.Sprintf("fingerprint text %q, fmt %q", got, want)
	}
	if got, want := q.Fingerprint(), hash(fmtFingerprint(q)); got != want {
		return fmt.Sprintf("fingerprint %s, fmt %s", got, want)
	}
	if got, want := string(q.appendStructural(nil)), fmtStructural(q); got != want {
		return fmt.Sprintf("structural text %q, fmt %q", got, want)
	}
	if got, want := q.StructuralFingerprint(), hash(fmtStructural(q)); got != want {
		return fmt.Sprintf("structural fingerprint %s, fmt %s", got, want)
	}
	c := newCanonicalizer(q)
	for m, id := range c.ids {
		if got, want := string(c.statSig[m]), fmtStatSig(q, id); got != want {
			return fmt.Sprintf("table %d signature %q, fmt %q", id, got, want)
		}
	}
	d, _ := q.CanonicalFingerprint()
	c.search(c.initial())
	if want := hash(fmtEncode(q, c.ids, c.bestPos)); d != want {
		return fmt.Sprintf("canonical fingerprint %s, fmt %s", d, want)
	}
	for i := 0; i < 3; i++ {
		pos := rng.Perm(len(c.ids))
		if got, want := string(c.encode(nil, pos)), fmtEncode(q, c.ids, pos); got != want {
			return fmt.Sprintf("canonical encoding at %v %q, fmt %q", pos, got, want)
		}
	}
	return ""
}

// TestRenderingMatchesFmt pins the strconv rendering of the three
// digests against fmt's on seeded chain, star and cycle queries of 2–8
// tables over the TPC-H catalog at three scale factors, and on a
// catalog whose statistics print in exponent form (1e-07, 1e+21,
// +Inf), with empty, unsorted and exponent-form sampling rates.
func TestRenderingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	check := func(name string, q *Query) {
		t.Helper()
		if msg := RenderingMismatch(q, rng); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
	}
	n := 0
	for _, sf := range []float64{0.01, 1, 30} {
		cat := catalog.TPCH(sf)
		for tables := 2; tables <= 8; tables++ {
			for _, tp := range []Topology{Chain, Star, Cycle} {
				for seed := int64(0); seed < 20; seed++ {
					q, err := Synthetic(cat, tables, tp, rand.New(rand.NewSource(seed)))
					if err != nil {
						continue // a cycle needs three tables
					}
					check(fmt.Sprintf("sf %g %v%d seed %d", sf, tp, tables, seed), q)
					n++
				}
			}
		}
	}
	if n < 1000 {
		t.Fatalf("only %d synthetic queries built", n)
	}

	odd := catalog.MustNew([]catalog.Table{
		{Name: "huge", Rows: 1e21, RowWidth: 1e-7, HasIndex: true, SamplingRates: []float64{0.5, 1e-7, 1}},
		{Name: "tiny", Rows: 1.5e-7, RowWidth: 123456789012, SamplingRates: []float64{}},
		{Name: "inf", Rows: math.Inf(1), RowWidth: 3},
		{Name: "plain", Rows: 1000, RowWidth: 64, SamplingRates: []float64{0.25}},
	})
	edges := []JoinEdge{
		{A: 3, B: 0, Selectivity: 1e-7},
		{A: 1, B: 3, Selectivity: 2.5e-21},
		{A: 2, B: 1, Selectivity: 1},
		{A: 0, B: 2, Selectivity: 1e-7},
	}
	check("exponent forms", MustNew(odd, []int{0, 1, 2, 3}, edges,
		WithFilter(0, 1e-7), WithFilter(3, 0.3)))
	check("exponent forms, two tables", MustNew(odd, []int{1, 3}, edges[1:2]))
}
