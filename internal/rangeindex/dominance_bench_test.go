package rangeindex_test

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// probeBox is one replayed dominance probe: a generated plan of table
// set sub, pruned at resolution r, by value.
type probeBox struct {
	sub   tableset.Set
	r     int
	rows  float64
	order plan.Order
	cost  [rangeindex.MaxDims]float64
}

// BenchmarkDominance is the range index's line for prune: every plan a
// cold refinement of the end-to-end benchmark's 4-table chain and star
// generates, probed against the converged result set of its table set
// at the resolution it was generated at, with the box prune asks about,
// α_r·c(p): as the index's Dominance probe (probe) and as the Query
// visitor it replaced (visitor). visited/op counts the covering entries
// the probes examined, exact/op the probes that found a plan making
// theirs redundant; both must read the same in either mode. tested/op
// and matched/op are the indexes' retrieval ledger, which the visitor
// also charges with the entries whose order cannot cover.
func BenchmarkDominance(b *testing.B) {
	for _, shape := range []struct {
		name string
		tp   query.Topology
		seed int64
	}{{"chain4", query.Chain, 11}, {"star4", query.Star, 12}} {
		b.Run(shape.name, func(b *testing.B) {
			q, err := query.Synthetic(catalog.TPCH(1), 4, shape.tp, rand.New(rand.NewSource(shape.seed)))
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
			dim, rM := cfg.Model.Space().Dim(), cfg.MaxResolution()
			var probes []probeBox
			r := 0
			cfg.Hooks.PlanGenerated = func(p *plan.Node) {
				pb := probeBox{sub: p.Tables, r: r, rows: p.Rows, order: p.Order}
				copy(pb.cost[:], p.Cost)
				probes = append(probes, pb)
			}
			o := core.MustNewOptimizer(q, cfg)
			for ; r <= rM; r++ {
				o.Optimize(nil, r)
			}
			// The optimizer's cell width (core's cellBase).
			const cellBase = 1.15
			sets := map[tableset.Set]*rangeindex.Index{}
			for sub, entries := range o.Snapshot().Wire().Res {
				ix := rangeindex.MustNew(dim, rM, cellBase)
				for _, e := range entries {
					ix.Insert(e)
				}
				sets[sub] = ix
			}
			box := make([]float64, dim)
			var p plan.Node
			// visitor is the question asked the way prune asked it before
			// the probe: every entry of the box handed to a closure.
			var found *plan.Node
			var seen int
			visitor := func(e rangeindex.Entry) bool {
				q := e.Payload
				if !q.Order.Covers(p.Order) {
					return true
				}
				seen++
				if q.Rows <= p.Rows && q.Cost.Dominates(p.Cost) {
					found = q
					return false
				}
				return true
			}
			for _, mode := range []string{"probe", "visitor"} {
				b.Run(mode, func(b *testing.B) {
					visited, exact := 0, 0
					tested0, matched0 := ledger(sets)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for k := range probes {
							pb := &probes[k]
							p.Rows, p.Order, p.Cost = pb.rows, pb.order, pb.cost[:dim]
							alpha := cfg.AlphaFor(pb.r)
							for d := range box {
								box[d] = alpha * pb.cost[d]
							}
							var x *plan.Node
							n := 0
							if mode == "probe" {
								x, _, n = sets[pb.sub].Dominance(box, pb.r, &p, true, false)
							} else {
								found, seen = nil, 0
								sets[pb.sub].Query(box, pb.r, 0, visitor)
								x, n = found, seen
							}
							visited += n
							if x != nil {
								exact++
							}
						}
					}
					b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
					b.ReportMetric(float64(exact)/float64(b.N), "exact/op")
					tested, matched := ledger(sets)
					b.ReportMetric(float64(len(probes)), "probes")
					b.ReportMetric(float64(tested-tested0)/float64(b.N), "tested/op")
					b.ReportMetric(float64(matched-matched0)/float64(b.N), "matched/op")
				})
			}
		})
	}
}

// ledger sums the retrieval ledgers of sets.
func ledger(sets map[tableset.Set]*rangeindex.Index) (tested, matched int) {
	for _, ix := range sets {
		t, m := ix.Retrievals()
		tested, matched = tested+t, matched+m
	}
	return tested, matched
}
