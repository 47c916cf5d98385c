package session

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/query"
)

// TestWarmRegimeAllocs pins what one regime of a warm session allocates,
// on BenchmarkWarmSteps' shape: a session restored from a converged
// chain4/star4 snapshot, dragged back to the unbounded regime and
// stepped to the target again and again. The completed-focus ledger
// makes every invocation free, and every step publishes the snapshot's
// own skyline of the levels up to its resolution (DESIGN.md D20), so
// what is left is SetBounds' two vectors for the unbounded regime: the
// unbounded vector and its copy. The records of a regime share its
// bounds vector instead of cloning it per step.
func TestWarmRegimeAllocs(t *testing.T) {
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		cold := core.MustNewOptimizer(q, cfg)
		for r := 0; r <= cfg.MaxResolution(); r++ {
			cold.Optimize(nil, r)
		}
		opt, err := core.NewOptimizerFromSnapshot(q, cfg, cold.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithOptimizer(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		regime := func() {
			if err := s.SetBounds(nil); err != nil {
				t.Fatal(err)
			}
			for !s.AtMaxResolution() {
				s.Step()
			}
		}
		regime()
		steps := len(s.Records())
		allocs := testing.AllocsPerRun(100, regime)
		if limit := 2.0; allocs > limit {
			t.Errorf("%s4: a warm regime of %d steps allocates %.1f times, want at most %.0f", tp, steps, allocs, limit)
		}
		rec := s.Records()
		for i := 1; i < len(rec); i++ {
			if !rec[i].BoundsChanged && &rec[i].Bounds[0] != &rec[i-1].Bounds[0] {
				t.Fatalf("%s4: records %d and %d of one regime hold two bounds vectors", tp, i-1, i)
			}
		}
	}
}
