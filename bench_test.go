// Package repro's root benchmarks regenerate every figure of the
// paper's evaluation (Trummer and Koch, SIGMOD 2015, Section 6) as
// testing.B benchmarks, plus ablation benchmarks for the design choices
// catalogued in DESIGN.md. Each BenchmarkFigure* measures one optimizer
// invocation series exactly as the corresponding figure does; the
// rendered tables themselves come from cmd/experiments.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// As in the paper, the interesting output is the relative time of the
// three algorithms, reported via custom metrics (iama-ns,
// memoryless-ns, oneshot-ns per invocation, and the ml/iama, os/iama
// speedup ratios).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/workload"
)

// benchSeries runs the three algorithms on one block and reports their
// per-invocation (average or maximal) times as custom benchmark metrics.
func benchSeries(b *testing.B, blockName string, levels int, alphaT, alphaS float64, useMax bool) {
	b.Helper()
	b.ReportAllocs()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), blockName)
	if !ok {
		b.Fatalf("unknown block %s", blockName)
	}
	model := costmodel.Default()
	var iamaNS, mlNS, osNS float64
	for i := 0; i < b.N; i++ {
		ia, ml, os, err := harness.InvocationTimes(blk.Query, model, levels, alphaT, alphaS)
		if err != nil {
			b.Fatal(err)
		}
		iamaNS += harness.AggregateNS(ia, useMax)
		mlNS += harness.AggregateNS(ml, useMax)
		osNS += harness.AggregateNS(os, useMax)
	}
	n := float64(b.N)
	b.ReportMetric(iamaNS/n, "iama-ns")
	b.ReportMetric(mlNS/n, "memoryless-ns")
	b.ReportMetric(osNS/n, "oneshot-ns")
	if iamaNS > 0 {
		b.ReportMetric(mlNS/iamaNS, "ml/iama")
		b.ReportMetric(osNS/iamaNS, "os/iama")
	}
}

// figureBlocks holds one representative block per table-count group
// {2, 3, 4, 5, 6, 8}, matching the x-axis of Figures 3–5.
var figureBlocks = []string{"Q4", "Q3", "Q10", "Q2", "Q5", "Q8"}

// Figure 3: average time per optimizer invocation at αT=1.01, αS=0.05
// for 1, 5 and 20 resolution levels.
func BenchmarkFigure3(b *testing.B) {
	for _, levels := range []int{1, 5, 20} {
		for _, blk := range figureBlocks {
			b.Run(fmt.Sprintf("levels=%d/%s", levels, blk), func(b *testing.B) {
				benchSeries(b, blk, levels, 1.01, 0.05, false)
			})
		}
	}
}

// Figure 4: as Figure 3 at the finer target precision αT=1.005, αS=0.5.
func BenchmarkFigure4(b *testing.B) {
	for _, levels := range []int{1, 5, 20} {
		for _, blk := range figureBlocks {
			b.Run(fmt.Sprintf("levels=%d/%s", levels, blk), func(b *testing.B) {
				benchSeries(b, blk, levels, 1.005, 0.5, false)
			})
		}
	}
}

// Figure 5: maximal time per optimizer invocation, 20 resolution
// levels, αT=1.005, αS=0.5.
func BenchmarkFigure5(b *testing.B) {
	for _, blk := range figureBlocks {
		b.Run(blk, func(b *testing.B) {
			benchSeries(b, blk, 20, 1.005, 0.5, true)
		})
	}
}

// Figure 2a: the anytime series' total latency (its quality trajectory
// is printed by cmd/experiments -figure 2a).
func BenchmarkFigure2aAnytimeSeries(b *testing.B) {
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q10")
	model := costmodel.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Model: model, ResolutionLevels: 10, TargetPrecision: 1.01, PrecisionStep: 0.05}
		opt := core.MustNewOptimizer(blk.Query, cfg)
		for r := 0; r < 10; r++ {
			opt.Optimize(nil, r)
		}
	}
}

// Figure 2b: per-invocation run time of incremental versus memoryless
// across a 10-step refinement series.
func BenchmarkFigure2bInvocationTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.InvocationTrace("Q5", harness.Options{
			TargetPrecision:  1.01,
			PrecisionStep:    0.05,
			ResolutionLevels: []int{10},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblation(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	b.ReportAllocs()
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	model := costmodel.Default()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Model: model, ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
		mutate(&cfg)
		opt := core.MustNewOptimizer(blk.Query, cfg)
		for r := 0; r < 5; r++ {
			opt.Optimize(nil, r)
		}
	}
}

// Ablation baseline for the flags below (DESIGN.md D2–D6).
func BenchmarkAblationDefault(b *testing.B) {
	benchAblation(b, func(*core.Config) {})
}

// Ablation D2: pruning against all resolutions instead of ≤ r.
func BenchmarkAblationPruneAll(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.PruneAgainstAll = true })
}

// Ablation D3: Δ filter disabled (pair memo only).
func BenchmarkAblationNoDelta(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.DisableDeltaFilter = true })
}

// Ablation D5: the paper's literal pruning, retaining globally
// redundant (exactly dominated) plans as candidates.
func BenchmarkAblationRetainDominated(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.RetainDominatedCandidates = true })
}

// Ablation D6: visible-frontier filtering disabled in Fresh.
func BenchmarkAblationNoFrontierFilter(b *testing.B) {
	benchAblation(b, func(cfg *core.Config) { cfg.DisableVisibleFrontierFilter = true })
}

// BenchmarkBoundsInteraction measures the interactive scenario the
// paper motivates but does not isolate in a figure: refinement,
// tightening, relaxation (the incremental advantage under user
// interaction).
func BenchmarkBoundsInteraction(b *testing.B) {
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q5")
	model := costmodel.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Model: model, ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
		opt := core.MustNewOptimizer(blk.Query, cfg)
		for r := 0; r < 5; r++ {
			opt.Optimize(nil, r)
		}
		frontier := opt.Results(nil, 4)
		if len(frontier) == 0 {
			b.Fatal("empty frontier")
		}
		tight := frontier[0].Cost.Scale(1.2)
		for r := 0; r < 5; r++ {
			opt.Optimize(tight, r)
		}
		for r := 0; r < 5; r++ {
			opt.Optimize(nil, r)
		}
	}
}

// BenchmarkExhaustiveVsApprox quantifies why approximation is needed at
// all (the paper's Section 1 motivation): exact Pareto DP versus the
// one-shot approximation on a mid-size block.
func BenchmarkExhaustiveVsApprox(b *testing.B) {
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q10")
	model := costmodel.Default()
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := baseline.Exhaustive(blk.Query, model, nil)
			if len(res.Final(blk.Query)) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
	b.Run("oneshot-1.01", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := baseline.OneShot(blk.Query, model, 1.01, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Final(blk.Query)) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
}

// BenchmarkDensitySweep demonstrates the mechanism behind the paper's
// Figure-4 magnitudes (DESIGN.md D7): the baselines' linear-scan
// pruning degrades as frontiers densify while IAMA's indexed pruning
// does not, so the relative advantage grows with the number of
// sampling variants per table.
func BenchmarkDensitySweep(b *testing.B) {
	for _, rates := range []int{2, 6, 12} {
		rates := rates
		b.Run(fmt.Sprintf("rates=%d", rates), func(b *testing.B) {
			b.ReportAllocs()
			var iamaNS, mlNS, osNS float64
			for i := 0; i < b.N; i++ {
				points, err := harness.DensitySweep(4, []int{rates}, 5, 1.01, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				p := points[0]
				iamaNS += float64(p.IAMAAvg.Nanoseconds())
				mlNS += float64(p.MemorylessAvg.Nanoseconds())
				osNS += float64(p.OneShot.Nanoseconds())
				b.ReportMetric(float64(p.FinalFrontier), "frontier-plans")
			}
			n := float64(b.N)
			b.ReportMetric(iamaNS/n, "iama-ns")
			b.ReportMetric(mlNS/n, "memoryless-ns")
			if iamaNS > 0 {
				b.ReportMetric(mlNS/iamaNS, "ml/iama")
				b.ReportMetric(osNS/iamaNS, "os/iama")
			}
		})
	}
}
