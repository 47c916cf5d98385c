package pareto_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
)

// convergedResults refines a 4-table query of the end-to-end benchmark's
// shape (TPC-H catalog, the benchmark's resolution ladder) to the target
// and returns its unfiltered root result set.
func convergedResults(tb testing.TB, tp query.Topology) []*plan.Node {
	tb.Helper()
	q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	o := core.MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	return o.Results(nil, cfg.MaxResolution())
}

// syntheticResults is n plans with log-uniform three-metric costs.
func syntheticResults(n int) []*plan.Node {
	rng := rand.New(rand.NewSource(7))
	plans := make([]*plan.Node, n)
	for i := range plans {
		plans[i] = costPlan(math.Exp(rng.Float64()*20), math.Exp(rng.Float64()*4), math.Exp(rng.Float64()*10))
	}
	return plans
}

// TestFilterOnConvergedResults checks the skyline against the definition
// on real result sets: nothing kept is dominated, everything dropped is,
// and the work happens in place.
func TestFilterOnConvergedResults(t *testing.T) {
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		in := convergedResults(t, tp)
		buf := slices.Clone(in)
		out := pareto.Filter(buf)
		if len(out) == 0 || len(out) >= len(in) {
			t.Fatalf("%v: skyline keeps %d of %d result plans", tp, len(out), len(in))
		}
		if &out[0] != &buf[0] || cap(out) != len(out) {
			t.Errorf("%v: skyline is not a capacity-clipped prefix of its argument", tp)
		}
		if !pareto.Covers(pareto.Vectors(out), pareto.Vectors(in), 1) {
			t.Errorf("%v: skyline does not cover the result set", tp)
		}
		for i, p := range out {
			for j, q := range out {
				if i != j && q.Cost.Dominates(p.Cost) {
					t.Fatalf("%v: kept plan %v is dominated by %v", tp, p.Cost, q.Cost)
				}
			}
		}
	}
}

// skylineSink keeps the compiler from discarding the measured call.
var skylineSink []*plan.Node

// BenchmarkSkyline is the pareto layer's line in the ledger: one skyline
// of a converged chain4/star4 root result set — what a snapshot pays
// once per level (DESIGN.md D20) — and of a 2 048-plan synthetic set,
// by Filter's keyed sort (keyed/) and by the stable sort of pointers it
// replaced (stable/, the test-only reference).
func BenchmarkSkyline(b *testing.B) {
	for _, bc := range []struct {
		name  string
		plans []*plan.Node
	}{
		{"chain4", convergedResults(b, query.Chain)},
		{"star4", convergedResults(b, query.Star)},
		{"synthetic2048", syntheticResults(2048)},
	} {
		for _, f := range []struct {
			name   string
			filter func([]*plan.Node) []*plan.Node
		}{{"keyed", pareto.Filter}, {"stable", stableFilter}} {
			b.Run(f.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				// Filter reorders its input: every iteration gets the
				// range query's order back (the copy is noise next to
				// the sort).
				buf := make([]*plan.Node, len(bc.plans))
				for i := 0; i < b.N; i++ {
					copy(buf, bc.plans)
					skylineSink = f.filter(buf)
				}
				b.ReportMetric(float64(len(bc.plans)), "plans")
				b.ReportMetric(float64(len(skylineSink)), "kept")
			})
		}
	}
}

// BenchmarkMerge is what a publication step pays beside it: Merge of
// two skylines of a converged chain4/star4 root result set, its plans
// cut in half in the range query's order (merge/), against Filter of
// the two skylines' union (filter/, what publication did before).
func BenchmarkMerge(b *testing.B) {
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		in := convergedResults(b, tp)
		half := len(in) / 2
		x := pareto.Filter(slices.Clone(in[:half]))
		y := pareto.Filter(slices.Clone(in[half:]))
		name := tp.String() + "4"
		b.Run("merge/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				skylineSink = pareto.Merge(x, y)
			}
			b.ReportMetric(float64(len(x)+len(y)), "plans")
			b.ReportMetric(float64(len(skylineSink)), "kept")
		})
		b.Run("filter/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				skylineSink = pareto.Filter(append(append(make([]*plan.Node, 0, len(x)+len(y)), x...), y...))
			}
			b.ReportMetric(float64(len(x)+len(y)), "plans")
			b.ReportMetric(float64(len(skylineSink)), "kept")
		})
	}
}
