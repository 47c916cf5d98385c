package query

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tableset"
)

func testCatalog() *catalog.Catalog {
	return catalog.MustNew([]catalog.Table{
		{Name: "a", Rows: 100, RowWidth: 10},
		{Name: "b", Rows: 1000, RowWidth: 10},
		{Name: "c", Rows: 10000, RowWidth: 10},
		{Name: "d", Rows: 50, RowWidth: 10},
	})
}

func TestNewBasic(t *testing.T) {
	cat := testCatalog()
	q, err := New(cat, []int{0, 1, 2}, []JoinEdge{
		{A: 0, B: 1, Selectivity: 0.01},
		{A: 1, B: 2, Selectivity: 0.001},
	}, WithName("tri"))
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "tri" {
		t.Errorf("Name = %q", q.Name())
	}
	if q.NumTables() != 3 {
		t.Errorf("NumTables = %d", q.NumTables())
	}
	if q.Tables() != tableset.Of(0, 1, 2) {
		t.Errorf("Tables = %v", q.Tables())
	}
	if len(q.Edges()) != 2 {
		t.Errorf("Edges = %v", q.Edges())
	}
	if q.Catalog() != cat {
		t.Error("Catalog identity lost")
	}
	if !strings.Contains(q.String(), "tri") {
		t.Errorf("String = %q", q.String())
	}
}

func TestNewValidation(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		name   string
		ids    []int
		edges  []JoinEdge
		opts   []Option
		errSub string
	}{
		{"no tables", nil, nil, nil, "no tables"},
		{"bad id", []int{99}, nil, nil, "outside catalog"},
		{"dup id", []int{0, 0}, nil, nil, "duplicate"},
		{"self join", []int{0, 1}, []JoinEdge{{A: 0, B: 0, Selectivity: 0.5}}, nil, "self-join"},
		{"edge outside", []int{0, 1}, []JoinEdge{{A: 0, B: 2, Selectivity: 0.5}}, nil, "outside the query"},
		{"bad sel", []int{0, 1}, []JoinEdge{{A: 0, B: 1, Selectivity: 0}}, nil, "selectivity"},
		{"disconnected", []int{0, 1, 2}, []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}}, nil, "not connected"},
		{"bad filter sel", []int{0, 1}, []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}},
			[]Option{WithFilter(0, 2)}, "filter selectivity"},
		{"filter outside", []int{0, 1}, []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}},
			[]Option{WithFilter(3, 0.5)}, "not in query"},
	}
	for _, tc := range cases {
		_, err := New(cat, tc.ids, tc.edges, tc.opts...)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errSub)
		}
	}
	if _, err := New(nil, []int{0}, nil); err == nil {
		t.Error("nil catalog: expected error")
	}
}

func TestSingleTableQueryNeedsNoEdges(t *testing.T) {
	q, err := New(testCatalog(), []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cardinality(tableset.Singleton(2)) != 10000 {
		t.Error("single-table cardinality wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(testCatalog(), nil, nil)
}

func TestCardinality(t *testing.T) {
	q := MustNew(testCatalog(), []int{0, 1, 2}, []JoinEdge{
		{A: 0, B: 1, Selectivity: 0.01},
		{A: 1, B: 2, Selectivity: 0.001},
	}, WithFilter(2, 0.1))
	// Base rows with filter.
	if got := q.BaseRows(2); got != 1000 {
		t.Errorf("BaseRows(2) = %g, want 1000", got)
	}
	if got := q.BaseRows(0); got != 100 {
		t.Errorf("BaseRows(0) = %g, want 100", got)
	}
	// {0,1}: 100 * 1000 * 0.01 = 1000.
	if got := q.Cardinality(tableset.Of(0, 1)); got != 1000 {
		t.Errorf("card{0,1} = %g, want 1000", got)
	}
	// {0,1,2}: 100 * 1000 * (10000*0.1) * 0.01 * 0.001 = 1000.
	if got := q.Cardinality(tableset.Of(0, 1, 2)); got != 1000 {
		t.Errorf("card{0,1,2} = %g, want 1000", got)
	}
	// Clamped at 1.
	q2 := MustNew(testCatalog(), []int{0, 1}, []JoinEdge{
		{A: 0, B: 1, Selectivity: 1e-9},
	})
	if got := q2.Cardinality(tableset.Of(0, 1)); got != 1 {
		t.Errorf("clamped cardinality = %g, want 1", got)
	}
}

func TestCardinalityPanics(t *testing.T) {
	q := MustNew(testCatalog(), []int{0, 1}, []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}})
	for name, s := range map[string]tableset.Set{
		"empty":   tableset.Empty(),
		"foreign": tableset.Singleton(3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Cardinality(%s) did not panic", name)
				}
			}()
			q.Cardinality(s)
		}()
	}
}

func TestCrossSelectivity(t *testing.T) {
	q := MustNew(testCatalog(), []int{0, 1, 2, 3}, []JoinEdge{
		{A: 0, B: 1, Selectivity: 0.1},
		{A: 1, B: 2, Selectivity: 0.2},
		{A: 2, B: 3, Selectivity: 0.3},
		{A: 0, B: 3, Selectivity: 0.4},
	})
	sel, n := q.CrossSelectivity(tableset.Of(0, 1), tableset.Of(2, 3))
	if n != 2 {
		t.Fatalf("edges = %d, want 2", n)
	}
	if math.Abs(sel-0.2*0.4) > 1e-12 {
		t.Errorf("sel = %g, want 0.08", sel)
	}
	// No cross edges → cartesian product.
	sel, n = q.CrossSelectivity(tableset.Of(0), tableset.Of(2))
	if n != 0 || sel != 1 {
		t.Errorf("cartesian: sel=%g n=%d", sel, n)
	}
}

func TestMinCrossEdge(t *testing.T) {
	q := MustNew(testCatalog(), []int{0, 1, 2, 3}, []JoinEdge{
		{A: 2, B: 3, Selectivity: 0.3},
		{A: 0, B: 3, Selectivity: 0.4},
		{A: 1, B: 2, Selectivity: 0.2},
		{A: 0, B: 1, Selectivity: 0.1},
	})
	// Two edges cross (1–2 and 0–3); the smaller left endpoint wins,
	// whatever the edge order and orientation.
	if a, b, ok := q.MinCrossEdge(tableset.Of(0, 1), tableset.Of(2, 3)); !ok || a != 0 || b != 3 {
		t.Errorf("{0,1}|{2,3}: got (%d,%d,%v), want (0,3,true)", a, b, ok)
	}
	if a, b, ok := q.MinCrossEdge(tableset.Of(2, 3), tableset.Of(0, 1)); !ok || a != 2 || b != 1 {
		t.Errorf("{2,3}|{0,1}: got (%d,%d,%v), want (2,1,true)", a, b, ok)
	}
	if _, _, ok := q.MinCrossEdge(tableset.Of(0), tableset.Of(2)); ok {
		t.Error("cartesian product reported a crossing edge")
	}
}

func TestConnectedSubsets(t *testing.T) {
	// Chain 0-1-2-3.
	q := MustNew(testCatalog(), []int{0, 1, 2, 3}, []JoinEdge{
		{A: 0, B: 1, Selectivity: 0.1},
		{A: 1, B: 2, Selectivity: 0.1},
		{A: 2, B: 3, Selectivity: 0.1},
	})
	cases := []struct {
		sub  tableset.Set
		want bool
	}{
		{tableset.Singleton(0), true},
		{tableset.Of(0, 1), true},
		{tableset.Of(0, 2), false},
		{tableset.Of(0, 1, 2), true},
		{tableset.Of(0, 1, 3), false},
		{tableset.Of(0, 1, 2, 3), true},
		{tableset.Empty(), false},
	}
	for _, tc := range cases {
		if got := q.Connected(tc.sub); got != tc.want {
			t.Errorf("Connected(%v) = %v, want %v", tc.sub, got, tc.want)
		}
	}
}

func TestFilterSelectivityDefault(t *testing.T) {
	q := MustNew(testCatalog(), []int{0, 1}, []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}},
		WithFilter(0, 0.25))
	if q.FilterSelectivity(0) != 0.25 {
		t.Error("explicit filter lost")
	}
	if q.FilterSelectivity(1) != 1 {
		t.Error("default filter must be 1")
	}
}

func TestSyntheticTopologies(t *testing.T) {
	cat := catalog.Random(rand.New(rand.NewSource(3)), 8, 100, 1e6)
	for _, tp := range []Topology{Chain, Star, Cycle, Clique} {
		rng := rand.New(rand.NewSource(17))
		q, err := Synthetic(cat, 6, tp, rng)
		if err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
		if q.NumTables() != 6 {
			t.Errorf("%v: NumTables = %d", tp, q.NumTables())
		}
		wantEdges := map[Topology]int{Chain: 5, Star: 5, Cycle: 6, Clique: 15}[tp]
		if len(q.Edges()) != wantEdges {
			t.Errorf("%v: %d edges, want %d", tp, len(q.Edges()), wantEdges)
		}
		if !q.Connected(q.Tables()) {
			t.Errorf("%v: full set must be connected", tp)
		}
		if !strings.Contains(q.Name(), tp.String()) {
			t.Errorf("%v: name %q", tp, q.Name())
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cat := catalog.TPCH(1)
	a, err := Synthetic(cat, 5, Chain, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(cat, 5, Chain, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestSyntheticErrors(t *testing.T) {
	cat := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(1))
	if _, err := Synthetic(cat, 0, Chain, rng); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Synthetic(cat, 99, Chain, rng); err == nil {
		t.Error("n too large should fail")
	}
	if _, err := Synthetic(cat, 3, Topology(42), rng); err == nil {
		t.Error("unknown topology should fail")
	}
}

func TestTopologyString(t *testing.T) {
	if Chain.String() != "chain" || Clique.String() != "clique" {
		t.Error("topology names wrong")
	}
	if Topology(9).String() != "topology(9)" {
		t.Error("unknown topology name wrong")
	}
}

// Property: cardinality of a superset with selective edges never explodes
// incorrectly — cardinality is monotone under adding a table joined by a
// selectivity-1 edge with 1-row table clamp aside; here we just check that
// Cardinality is always >= 1 and finite for random synthetic queries.
func TestCardinalityAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cat := catalog.Random(rng, 8, 10, 1e7)
	for trial := 0; trial < 30; trial++ {
		tp := []Topology{Chain, Star, Cycle, Clique}[rng.Intn(4)]
		n := 2 + rng.Intn(6)
		q, err := Synthetic(cat, n, tp, rng)
		if err != nil {
			t.Fatal(err)
		}
		q.Tables().Subsets(func(sub tableset.Set) bool {
			card := q.Cardinality(sub)
			if card < 1 || math.IsInf(card, 0) || math.IsNaN(card) {
				t.Fatalf("invalid cardinality %g for %v", card, sub)
			}
			return true
		})
	}
}
