package query

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

func fpCatalog() *catalog.Catalog {
	return catalog.MustNew([]catalog.Table{
		{Name: "a", Rows: 1000, RowWidth: 10, HasIndex: true, SamplingRates: []float64{0.1, 0.5}},
		{Name: "b", Rows: 2000, RowWidth: 20},
		{Name: "c", Rows: 3000, RowWidth: 30, SamplingRates: []float64{0.25}},
	})
}

func TestFingerprintIgnoresDeclarationOrder(t *testing.T) {
	cat := fpCatalog()
	q1 := MustNew(cat, []int{0, 1, 2},
		[]JoinEdge{{A: 0, B: 1, Selectivity: 0.5}, {A: 1, B: 2, Selectivity: 0.25}},
		WithName("one"), WithFilter(0, 0.1), WithFilter(2, 0.3))
	q2 := MustNew(cat, []int{2, 0, 1},
		[]JoinEdge{{A: 2, B: 1, Selectivity: 0.25}, {A: 1, B: 0, Selectivity: 0.5}},
		WithName("two"), WithFilter(2, 0.3), WithFilter(0, 0.1))
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Error("declaration order changed the fingerprint")
	}
}

func TestFingerprintDistinguishesPlanningInputs(t *testing.T) {
	cat := fpCatalog()
	base := MustNew(cat, []int{0, 1},
		[]JoinEdge{{A: 0, B: 1, Selectivity: 0.5}}, WithFilter(0, 0.1))
	variants := map[string]*Query{
		"selectivity": MustNew(cat, []int{0, 1},
			[]JoinEdge{{A: 0, B: 1, Selectivity: 0.4}}, WithFilter(0, 0.1)),
		"filter": MustNew(cat, []int{0, 1},
			[]JoinEdge{{A: 0, B: 1, Selectivity: 0.5}}, WithFilter(0, 0.2)),
		"no-filter": MustNew(cat, []int{0, 1},
			[]JoinEdge{{A: 0, B: 1, Selectivity: 0.5}}),
		"tables": MustNew(cat, []int{1, 2},
			[]JoinEdge{{A: 1, B: 2, Selectivity: 0.5}}),
	}
	for name, v := range variants {
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s variant collides with base fingerprint", name)
		}
	}
}

// TestFingerprintSeesCatalogStats verifies that identical query shapes
// over tables with different statistics hash differently — cached plan
// costs would be wrong otherwise.
func TestFingerprintSeesCatalogStats(t *testing.T) {
	cat2 := catalog.MustNew([]catalog.Table{
		{Name: "a", Rows: 999, RowWidth: 10, HasIndex: true, SamplingRates: []float64{0.1, 0.5}},
		{Name: "b", Rows: 2000, RowWidth: 20},
		{Name: "c", Rows: 3000, RowWidth: 30, SamplingRates: []float64{0.25}},
	})
	edges := []JoinEdge{{A: 0, B: 1, Selectivity: 0.5}}
	q1 := MustNew(fpCatalog(), []int{0, 1}, edges)
	q2 := MustNew(cat2, []int{0, 1}, edges)
	if q1.Fingerprint() == q2.Fingerprint() {
		t.Error("different table cardinalities produced equal fingerprints")
	}
}

// TestFingerprintDeterministic verifies stability across rebuilds of
// the same synthetic query (the warm-start cache's hit condition).
func TestFingerprintDeterministic(t *testing.T) {
	cat := catalog.TPCH(1)
	q1, err := Synthetic(cat, 5, Star, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Synthetic(cat, 5, Star, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Error("same seed produced different fingerprints")
	}
	q3, err := Synthetic(cat, 5, Star, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if q1.Fingerprint() == q3.Fingerprint() {
		t.Error("different seeds produced equal fingerprints")
	}
}

// keySink keeps the compiler from discarding the measured call.
var keySink string

// BenchmarkKeys is the query layer's line in the ledger: the three
// cache keys the service derives for every session it creates, on a
// star4 query of the end-to-end benchmark's shape (TPC-H catalog).
// compute/ hashes a key from scratch, what a query pays at its first
// call; held/ is every later call, which returns the remembered key.
func BenchmarkKeys(b *testing.B) {
	q, err := Synthetic(catalog.TPCH(1), 4, Star, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name          string
		compute, held func() string
	}{
		{"exact", q.fingerprint, q.Fingerprint},
		{"canonical",
			func() string { d, _ := q.canonical(); return d },
			func() string { d, _ := q.CanonicalFingerprint(); return d }},
		{"structural", q.structural, q.StructuralFingerprint},
	} {
		for _, mode := range []struct {
			name string
			key  func() string
		}{{"compute", k.compute}, {"held", k.held}} {
			b.Run(mode.name+"/"+k.name, func(b *testing.B) {
				keySink = mode.key()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					keySink = mode.key()
				}
			})
		}
	}
}
