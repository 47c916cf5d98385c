package session

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/query"
)

// BenchmarkWarmSteps is what an exact-tier hit pays the session layer:
// one regime of a session restored from a converged chain4/star4
// snapshot (TPC-H catalog, the end-to-end benchmark's resolution
// ladder), stepped from resolution 0 to the target. The restore itself
// is outside the timer; the completed-focus ledger makes the
// invocations free (DESIGN.md D18), so what is measured is mostly
// publication (D20). µs/op and allocs/op are per regime.
func BenchmarkWarmSteps(b *testing.B) {
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		cold := core.MustNewOptimizer(q, cfg)
		for r := 0; r <= cfg.MaxResolution(); r++ {
			cold.Optimize(nil, r)
		}
		snap := cold.Snapshot()
		b.Run(tp.String()+"4", func(b *testing.B) {
			b.ReportAllocs()
			published := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				opt, err := core.NewOptimizerFromSnapshot(q, cfg, snap)
				if err != nil {
					b.Fatal(err)
				}
				s, err := NewWithOptimizer(opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for !s.AtMaxResolution() {
					s.Step()
				}
				published = len(s.Frontier())
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
			b.ReportMetric(float64(published), "published")
		})
	}
}
