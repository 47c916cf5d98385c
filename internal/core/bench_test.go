package core

import (
	"testing"

	"repro/internal/query"
)

// BenchmarkOptimizeStep is the core layer's line in the ledger: the
// invocations of a cold session on the benchmark's two 4-table shapes.
// r0 is the first invocation of a fresh optimizer (scan enumeration and
// the bulk of the plan generation); refine is the series r=1…r_M that
// takes the same optimizer to the target precision. plans/op is the
// number of plans the timed invocations generated.
func BenchmarkOptimizeStep(b *testing.B) {
	cfg := defaultConfig()
	for _, shape := range []struct {
		name string
		q    *query.Query
	}{
		{"chain4", chain4(b)},
		{"star4", star4(b)},
	} {
		for _, part := range []struct {
			name     string
			from, to int
		}{
			{"r0", 0, 0},
			{"refine", 1, cfg.MaxResolution()},
		} {
			b.Run(shape.name+"/"+part.name, func(b *testing.B) {
				b.ReportAllocs()
				plans := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					o := MustNewOptimizer(shape.q, cfg)
					for r := 0; r < part.from; r++ {
						o.Optimize(nil, r)
					}
					before := o.Stats().PlansGenerated
					b.StartTimer()
					for r := part.from; r <= part.to; r++ {
						o.Optimize(nil, r)
					}
					plans += o.Stats().PlansGenerated - before
				}
				b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
			})
		}
	}
}
