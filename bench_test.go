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
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/harness"
	"repro/internal/service"
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

// benchServiceSessions drives `sessions` concurrent anytime-optimization
// sessions through the multi-tenant service to target precision and
// reports throughput plus frontier-poll latency percentiles. With
// warmCache, every query shape is pre-converged once before the timed
// loop so all sessions hit the warm-start cache; without it the cache
// is disabled entirely.
func benchServiceSessions(b *testing.B, sessions int, warmCache bool) {
	b.Helper()
	b.ReportAllocs()
	blocks := workload.MustTPCHBlocks(1)
	// Workload spec shared with cmd/benchjson (harness.ServiceBench*),
	// so BENCH_core.json records the same benchmark.
	names := harness.ServiceBenchNames()
	svc, err := service.New(harness.ServiceBenchConfig(warmCache))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Shutdown()

	// WaitTarget blocks on the service's step-completion broadcast, so
	// neither the warm-up nor the timed sessions burn worker cycles in
	// a poll loop (they used to spin on Poll at 50µs intervals, which
	// both wasted a core and perturbed the latency percentiles).
	if warmCache {
		for _, name := range names {
			blk, _ := workload.Find(blocks, name)
			id, err := svc.Create(blk.Query)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.WaitTarget(id); err != nil {
				b.Fatal(err)
			}
			if err := svc.Close(id); err != nil {
				b.Fatal(err)
			}
		}
	}

	driveServiceSessions(b, svc, blocks, names, sessions, warmCache)
}

// driveServiceSessions is the shared timed loop of the service
// benchmarks: b.N batches of `sessions` concurrent create→converge→
// close session lifecycles over the caller's workload mix.
func driveServiceSessions(b *testing.B, svc *service.Service, blocks []workload.Block, names []string, sessions int, warmCache bool) {
	b.Helper()
	var mu sync.Mutex
	var pollLats, firstLats []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				blk, _ := workload.Find(blocks, names[s%len(names)])
				id, err := svc.Create(blk.Query)
				if err != nil {
					errs <- err
					return
				}
				pollStart := time.Now()
				st, err := svc.WaitTarget(id)
				pollLat := time.Since(pollStart)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				pollLats = append(pollLats, pollLat)
				firstLats = append(firstLats, st.FirstFrontier)
				mu.Unlock()
				errs <- svc.Close(id)
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	total := float64(b.N * sessions)
	b.ReportMetric(total/b.Elapsed().Seconds(), "sessions/sec")
	b.ReportMetric(float64(harness.Percentile(firstLats, 0.95).Nanoseconds()), "p95-first-frontier-ns")
	b.ReportMetric(float64(harness.Percentile(pollLats, 0.95).Nanoseconds()), "p95-converge-ns")
	if warmCache {
		st := svc.Stats()
		b.ReportMetric(float64(st.Cache.Hits), "cache-hits")
	}
}

// BenchmarkServiceSessions measures multi-tenant service throughput and
// p95 latency at 1, 8 and 64 concurrent sessions, with and without the
// warm-start plan cache (the ROADMAP's serve-many-users direction).
func BenchmarkServiceSessions(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		for _, warm := range []bool{false, true} {
			label := "cold"
			if warm {
				label = "warm"
			}
			b.Run(fmt.Sprintf("sessions=%d/%s", n, label), func(b *testing.B) {
				benchServiceSessions(b, n, warm)
			})
		}
	}
}

// benchServiceIsomorphic measures the cross-shape warm-start tier on a
// workload with zero exact repeats and 100% shape repeats: every
// session optimizes a distinct table-ID-permuted variant of one base
// block. Three modes bound the result:
//
//	iso    cache warmed with the base variant only — every session is
//	       an isomorphic (canonical-tier) hit restored via remap;
//	exact  the driven variants themselves pre-converged — every
//	       session is an exact-tier hit (the warm upper bound);
//	cold   cache disabled (the lower bound).
//
// The acceptance target is iso within 2x of exact and ≥5x over cold.
func benchServiceIsomorphic(b *testing.B, sessions int, mode string) {
	b.Helper()
	b.ReportAllocs()
	pool, err := harness.ServiceIsoBenchPool()
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.ServiceBenchIsoConfig()
	if mode == "cold" {
		cfg = harness.ServiceBenchConfig(false)
	}
	newSvc := func() *service.Service {
		svc, err := service.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		switch mode {
		case "iso":
			// Warm only the base: the canonical tier serves the rest.
			if err := harness.ConvergeOnce(svc, pool[0].Query); err != nil {
				b.Fatal(err)
			}
		case "exact":
			// Pre-converge exactly the variants the timed loop drives.
			if _, _, err := harness.DriveIsoSessions(svc, pool, 0, sessions); err != nil {
				b.Fatal(err)
			}
		case "cold":
		default:
			b.Fatalf("unknown mode %q", mode)
		}
		return svc
	}
	svc := newSvc()
	defer func() { svc.Shutdown() }()
	var exactHits, isoHits, isoStarts uint64
	var remapNS time.Duration
	account := func(svc *service.Service) {
		st := svc.Stats()
		exactHits += st.Cache.ExactHits
		isoHits += st.Cache.IsoHits
		isoStarts += st.IsoWarmStarts
		remapNS += st.RemapTotal
	}
	warmupHits := svc.Stats().Cache // exclude the warm-up drive's hits
	cursor := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := cursor
		if mode == "exact" {
			start = 0 // repeat the pre-converged slice: all exact hits
		} else if cursor+sessions > len(pool)-1 {
			// The variant pool would wrap and earlier variants would hit
			// the exact tier, corrupting the "zero exact repeats"
			// premise under go test's adaptive b.N. Restart from a
			// fresh service (and cursor) outside the timed region.
			b.StopTimer()
			account(svc)
			exactHits -= warmupHits.ExactHits // warm-up drives repeat per service
			isoHits -= warmupHits.IsoHits
			svc.Shutdown()
			svc = newSvc()
			cursor, start = 0, 0
			b.StartTimer()
		}
		next, _, err := harness.DriveIsoSessions(svc, pool, start, sessions)
		if err != nil {
			b.Fatal(err)
		}
		cursor = next
	}
	b.StopTimer()
	account(svc)
	exactHits -= warmupHits.ExactHits
	isoHits -= warmupHits.IsoHits
	total := float64(b.N * sessions)
	b.ReportMetric(total/b.Elapsed().Seconds(), "sessions/sec")
	b.ReportMetric(float64(exactHits)/float64(b.N), "exact-hits/op")
	b.ReportMetric(float64(isoHits)/float64(b.N), "iso-hits/op")
	if isoStarts > 0 {
		b.ReportMetric(float64(remapNS.Nanoseconds())/float64(isoStarts), "remap-ns/hit")
	}
}

// BenchmarkServiceIsomorphic measures warm-start throughput when no
// query ever repeats exactly but every query's shape repeats — the
// fleet-scale pattern the canonical cache tier exists for (ROADMAP
// "Cross-shape cache reuse").
func BenchmarkServiceIsomorphic(b *testing.B) {
	for _, mode := range []string{"iso", "exact", "cold"} {
		b.Run(fmt.Sprintf("sessions=64/%s", mode), func(b *testing.B) {
			benchServiceIsomorphic(b, 64, mode)
		})
	}
}

// benchServiceRestart measures the restart-heavy scenario the snapshot
// store exists for: every iteration tears the service down and
// rebuilds it before driving a batch of sessions. Three modes bound
// the result:
//
//	cold  rebuilt with no store — every restart pays the cold-start
//	      cliff (the lower bound);
//	disk  rebuilt on a pre-warmed store directory — the replay
//	      pre-populates the cache, so sessions warm-start across the
//	      restart;
//	mem   never restarted, cache in memory (the upper bound).
//
// The acceptance target is disk first-frontier p95 within 2x of mem
// and ≥5x better than cold.
func benchServiceRestart(b *testing.B, sessions int, mode string) {
	b.Helper()
	b.ReportAllocs()
	blocks := workload.MustTPCHBlocks(1)
	names := harness.ServiceBenchNames()
	var dir string
	newSvc := func() *service.Service {
		cfg := harness.ServiceBenchConfig(mode == "mem")
		if mode == "disk" {
			cfg = harness.ServiceBenchPersistConfig(dir)
		}
		svc, err := service.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	var memSvc *service.Service
	switch mode {
	case "disk":
		dir = b.TempDir()
		if err := harness.WarmPersistStore(dir); err != nil {
			b.Fatal(err)
		}
	case "mem":
		memSvc = newSvc()
		defer memSvc.Shutdown()
		for _, name := range names {
			blk, _ := workload.Find(blocks, name)
			if err := harness.ConvergeOnce(memSvc, blk.Query); err != nil {
				b.Fatal(err)
			}
		}
	case "cold":
	default:
		b.Fatalf("unknown mode %q", mode)
	}
	var firstLats []time.Duration
	var replayed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := memSvc
		if svc == nil {
			svc = newSvc() // the restart under measurement (incl. replay)
		}
		// Collect the previous iteration's garbage (torn-down service,
		// replay buffers, finished sessions) before the drive, so the
		// latency percentiles measure serving, not a GC sweep landing
		// mid-batch on a single-core host and smearing the tail. All
		// three modes pay the same collection point.
		runtime.GC()
		_, firsts, err := harness.DriveSessionsFF(svc, blocks, names, sessions)
		if err != nil {
			b.Fatal(err)
		}
		firstLats = append(firstLats, firsts...)
		if svc != memSvc {
			replayed += svc.Stats().Store.Loaded
			svc.Shutdown()
		}
	}
	b.StopTimer()
	total := float64(b.N * sessions)
	b.ReportMetric(total/b.Elapsed().Seconds(), "sessions/sec")
	b.ReportMetric(float64(harness.Percentile(firstLats, 0.95).Nanoseconds()), "p95-first-frontier-ns")
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
}

// BenchmarkServiceRestart measures first-frontier latency and
// throughput when the service restarts between session batches, with
// the warm-start cache rebuilt from the persistent snapshot store
// versus cold restarts and a never-restarted in-memory-warm control
// (ROADMAP "Persistent warm-start cache").
func BenchmarkServiceRestart(b *testing.B) {
	for _, mode := range []string{"cold", "disk", "mem"} {
		b.Run(fmt.Sprintf("sessions=64/%s", mode), func(b *testing.B) {
			benchServiceRestart(b, 64, mode)
		})
	}
}

// benchServiceContention drives the cold-cache session workload through
// a service with an explicit shard count, reporting throughput plus the
// scheduler's contention counters. GOMAXPROCS (and with it the worker
// pool and the shards=auto count) comes from the -cpu flag.
func benchServiceContention(b *testing.B, sessions, shards int) {
	b.Helper()
	b.ReportAllocs()
	svc, err := service.New(harness.ServiceBenchContentionConfig(shards))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Shutdown()
	driveServiceSessions(b, svc, workload.MustTPCHBlocks(1), harness.ServiceBenchNames(), sessions, false)
	st := svc.Stats()
	var steals, pops uint64
	for _, ss := range st.Shards {
		steals += ss.Steals
		pops += ss.Pops
	}
	b.ReportMetric(float64(steals), "steals")
	if pops > 0 {
		b.ReportMetric(float64(st.Steps)/float64(pops), "steps/pop")
	}
	b.ReportMetric(float64(st.StepGapP99.Nanoseconds()), "p99-step-gap-ns")
}

// BenchmarkServiceContention isolates the multi-core scaling of the
// sharded scheduler: the same cold 64–512-session workload against the
// single-queue control (shards=1) and the per-core sharded
// configuration (shards=auto). Run it across core counts with
//
//	go test -cpu 1,4,8 -bench 'BenchmarkServiceContention' -benchtime 3x -run '^$' .
//
// The acceptance target is sharded ≥2x the shards=1 control at ≥4
// cores and within noise of it at 1 core.
func BenchmarkServiceContention(b *testing.B) {
	for _, cfg := range []struct {
		label  string
		shards int
	}{{"single", 1}, {"sharded", 0}} {
		for _, n := range []int{64, 512} {
			b.Run(fmt.Sprintf("shards=%s/sessions=%d", cfg.label, n), func(b *testing.B) {
				benchServiceContention(b, n, cfg.shards)
			})
		}
	}
}
