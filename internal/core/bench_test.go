package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

type benchShape struct {
	name string
	q    *query.Query
}

// benchShapes are the benchmark's two 4-table query shapes.
func benchShapes(b *testing.B) []benchShape {
	return []benchShape{{"chain4", chain4(b)}, {"star4", star4(b)}}
}

// BenchmarkOptimizeStep is the core layer's line in the ledger: the
// invocations of a cold session on the benchmark's two 4-table shapes.
// r0 is the first invocation of a fresh optimizer (scan enumeration and
// the bulk of the plan generation); refine is the series r=1…r_M that
// takes the same optimizer to the target precision. plans/op is the
// number of plans the timed invocations generated.
func BenchmarkOptimizeStep(b *testing.B) {
	cfg := defaultConfig()
	for _, shape := range benchShapes(b) {
		for _, part := range []struct {
			name     string
			from, to int
		}{
			{"r0", 0, 0},
			{"refine", 1, cfg.MaxResolution()},
		} {
			b.Run(shape.name+"/"+part.name, func(b *testing.B) {
				b.ReportAllocs()
				var total Stats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					o := MustNewOptimizer(shape.q, cfg)
					for r := 0; r < part.from; r++ {
						o.Optimize(nil, r)
					}
					before := o.Stats()
					b.StartTimer()
					for r := part.from; r <= part.to; r++ {
						o.Optimize(nil, r)
					}
					total = total.plus(o.Stats().Minus(before))
				}
				total.report(b)
			})
		}
	}
}

// plus adds the counters of d that the benchmarks report.
func (s Stats) plus(d Stats) Stats {
	s.PlansGenerated += d.PlansGenerated
	s.EntriesTested += d.EntriesTested
	s.EntriesMatched += d.EntriesMatched
	return s
}

// report emits those counters per benchmark iteration.
func (s Stats) report(b *testing.B) {
	b.ReportMetric(float64(s.PlansGenerated)/float64(b.N), "plans/op")
	b.ReportMetric(float64(s.EntriesTested)/float64(b.N), "tested/op")
	b.ReportMetric(float64(s.EntriesMatched)/float64(b.N), "matched/op")
}

// populationQueries is the population the range index's cell width was
// chosen on (DESIGN.md D4): 40 seeded 4-table queries over the TPC-H
// catalog, chains and stars alternating, as cold_distinct generates them.
func populationQueries(b *testing.B) []*query.Query {
	qs := make([]*query.Query, 40)
	for i := range qs {
		tp := query.Chain
		if i%2 == 1 {
			tp = query.Star
		}
		qs[i] = synthetic4(b, tp, 1000+int64(i))
	}
	return qs
}

// BenchmarkOptimizePopulation is one cold refinement to the target of
// every query of the population: the number the cell width and the
// walk's refinements are judged on, because a single shape rewards a
// geometry fitted to its own cost range.
func BenchmarkOptimizePopulation(b *testing.B) {
	cfg := defaultConfig()
	qs := populationQueries(b)
	var total Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			o := MustNewOptimizer(q, cfg)
			for r := 0; r <= cfg.MaxResolution(); r++ {
				o.Optimize(nil, r)
			}
			total = total.plus(o.Stats())
		}
	}
	total.report(b)
}

// BenchmarkRestoreExact is what an exact-tier cache hit pays in core: a
// converged snapshot of each shape restored into a new optimizer. pairs
// is the size of the memo the restore shares instead of rebuilding.
func BenchmarkRestoreExact(b *testing.B) {
	cfg := defaultConfig()
	for _, shape := range benchShapes(b) {
		b.Run(shape.name, func(b *testing.B) {
			src := MustNewOptimizer(shape.q, cfg)
			for r := 0; r <= cfg.MaxResolution(); r++ {
				src.Optimize(nil, r)
			}
			snap := src.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewOptimizerFromSnapshot(shape.q, cfg, snap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(snap.pairs)), "pairs")
		})
	}
}

// BenchmarkReexport is what a warm session's re-export costs: a
// snapshot of each shape restored, run through a covered regime — the
// snapshot's own, so no invocation writes — and exported again. covered
// starts from a converged snapshot, as an exact-tier hit does; drag
// starts from the first frontier's snapshot and adds a drag regime
// (tight, relaxed, unbounded bounds) that inserts and drains before the
// export. Only the export is timed; allocs/op are its allocations.
// untouched is the number of plan sets no write changed since the
// restore, which export the very list they were restored from.
func BenchmarkReexport(b *testing.B) {
	cfg := defaultConfig()
	rM := cfg.MaxResolution()
	for _, shape := range benchShapes(b) {
		for _, regime := range []struct {
			name  string
			upTo  int  // the source's and the covered regime's last resolution
			drags bool // a drag regime follows the covered one
		}{
			{"covered", rM, false},
			{"drag", 0, true},
		} {
			src := MustNewOptimizer(shape.q, cfg)
			for r := 0; r <= regime.upTo; r++ {
				src.Optimize(nil, r)
			}
			snap := src.Snapshot()
			bounds := []cost.Vector{nil}
			if regime.drags {
				tight := componentMedian(src, 0).Scale(0.7)
				bounds = append(bounds, tight, tight.Scale(1.6), nil)
			}
			b.Run(shape.name+"/"+regime.name, func(b *testing.B) {
				b.ReportAllocs()
				untouched := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					o, err := NewOptimizerFromSnapshot(shape.q, cfg, snap)
					if err != nil {
						b.Fatal(err)
					}
					for j, bounds := range bounds {
						upTo := rM
						if j == 0 {
							upTo = regime.upTo
						}
						for r := 0; r <= upTo; r++ {
							o.Optimize(bounds, r)
						}
					}
					b.StartTimer()
					o.Snapshot()
					b.StopTimer()
					res, cand := FrozenSets(o)
					untouched = len(res) + len(cand)
					b.StartTimer()
				}
				b.ReportMetric(float64(untouched), "untouched")
			})
		}
	}
}

// BenchmarkIndexAdopt is the range-index share of a restore: the plan
// sets of a converged chain4 snapshot put into empty indexes. freeze is
// what a snapshot pays once, at its first restore — cutting its lists
// into cell directories whose cells are windows of them; adopt is what
// every restore pays; insert is the entry-by-entry Insert that both
// replaced.
func BenchmarkIndexAdopt(b *testing.B) {
	cfg := defaultConfig()
	src := MustNewOptimizer(chain4(b), cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
	}
	snap := src.Snapshot()
	var lists [][]rangeindex.Entry
	var images []*rangeindex.Image
	for _, set := range []map[tableset.Set][]rangeindex.Entry{snap.res, snap.cand} {
		for _, entries := range set {
			lists = append(lists, entries)
			images = append(images, src.newIndex().Freeze(entries))
		}
	}
	for _, how := range []struct {
		name string
		fill func(ix *rangeindex.Index, i int)
	}{
		{"freeze", func(ix *rangeindex.Index, i int) { ix.Freeze(lists[i]) }},
		{"adopt", func(ix *rangeindex.Index, i int) { ix.Adopt(images[i]) }},
		{"insert", func(ix *rangeindex.Index, i int) {
			for _, e := range lists[i] {
				ix.Insert(e)
			}
		}},
	} {
		b.Run(how.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range lists {
					how.fill(src.newIndex(), i)
				}
			}
			b.ReportMetric(float64(snap.PlanCount()), "entries")
		})
	}
}

// BenchmarkReinvokeCovered is what an exact-tier hit pays in core end to
// end: the converged snapshot restored, then the five invocations of the
// regime it was converged for. The cold convergence was an anchored
// series, so the completed-focus ledger (DESIGN.md D18) covers all five.
// covered/op counts the covered invocations; allocs/op is the restore's
// alone, since none of the invocations allocates.
func BenchmarkReinvokeCovered(b *testing.B) {
	cfg := defaultConfig()
	for _, shape := range benchShapes(b) {
		b.Run(shape.name, func(b *testing.B) {
			src := MustNewOptimizer(shape.q, cfg)
			for r := 0; r <= cfg.MaxResolution(); r++ {
				src.Optimize(nil, r)
			}
			snap := src.Snapshot()
			covered := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := NewOptimizerFromSnapshot(shape.q, cfg, snap)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r <= cfg.MaxResolution(); r++ {
					o.Optimize(nil, r)
				}
				if st := o.Stats(); st.PairsCombined != 0 || st.PairsSkippedStale != 0 {
					b.Fatalf("the regime was not free: %v", st)
				}
				covered += o.Stats().CoveredInvocations
			}
			b.ReportMetric(float64(covered)/float64(b.N), "covered/op")
		})
	}
}

// BenchmarkFrontierFilter times the frontier filter of DESIGN.md D6 on
// the inputs of its two callers at the target resolution of converged
// chain4 and star4 (filterInputs): visible/ filters one table set's
// visible result plans per op, batch/ one pair's 12 join alternatives,
// cycling through all of them. sweep is the optimizer's sort-then-sweep,
// quadratic the all-pairs filter it replaced. plans/op is the mean input
// size.
//
// sort/ times the two sorts sortByCost chooses between on random plan
// sets of n plans; insertionSortMax is where they cross.
func BenchmarkFrontierFilter(b *testing.B) {
	cfg := defaultConfig()
	for _, shape := range benchShapes(b) {
		visible, batches := filterInputs(b, shape.q, cfg)
		o := MustNewOptimizer(shape.q, cfg)
		for _, caller := range []struct {
			name   string
			inputs [][]*plan.Node
		}{{"visible", visible}, {"batch", batches}} {
			plans := 0
			for _, all := range caller.inputs {
				plans += len(all)
			}
			for _, impl := range []struct {
				name   string
				filter func(all []*plan.Node, keep []bool) []bool
			}{
				{"sweep", o.frontierFilter},
				{"quadratic", func(all []*plan.Node, keep []bool) []bool { return quadraticFrontierFilter(cfg, all, keep) }},
			} {
				b.Run(caller.name+"/"+shape.name+"/"+impl.name, func(b *testing.B) {
					b.ReportAllocs()
					var keep []bool
					for i := 0; i < b.N; i++ {
						keep = impl.filter(caller.inputs[i%len(caller.inputs)], keep)
					}
					b.ReportMetric(float64(plans)/float64(len(caller.inputs)), "plans/op")
				})
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 12, 16, 24, 32, 48, 64, 96, 128} {
		all := randomPlans(rng, n, cfg.Model.Space().Dim(), false)
		keys := make([]sortKey, n)
		for _, sort := range []struct {
			name string
			fn   func([]*plan.Node, []sortKey)
		}{{"insertion", insertionSortByCost}, {"pdq", pdqSortByCost}} {
			b.Run(fmt.Sprintf("sort/%s/n=%d", sort.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, p := range all {
						keys[j] = sortKey{p.Cost[0], int32(j)}
					}
					sort.fn(all, keys)
				}
			})
		}
	}
}
