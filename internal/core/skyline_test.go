package core_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
)

// checkSkylineAt compares AppendSkylineAt with the skyline of
// AppendResultsAt, pointer for pointer and in order, for unbounded and
// seeded random bounds, every resolution and the epochs a session asks
// for (0 and the current one), plus one that splits the restored plans
// (the path without the snapshot's skylines). It appends to a non-empty
// prefix, which must stay as it was. Where RestoredFrontier answers, it
// must give the skyline of Results too; checkSkylineAt returns how often
// it answered.
func checkSkylineAt(t *testing.T, o *core.Optimizer, rng *rand.Rand) (restored int) {
	t.Helper()
	rM := o.Config().MaxResolution()
	all := o.Results(nil, rM)
	if len(all) == 0 {
		t.Fatal("no root result plans to publish")
	}
	bounds := []cost.Vector{nil}
	for i := 0; i < 8; i++ {
		// Each component at a random plan's cost scaled by [0.5, 2),
		// or unbounded.
		b := make(cost.Vector, len(all[0].Cost))
		for d := range b {
			if rng.Intn(5) == 0 {
				b[d] = math.Inf(1)
			} else {
				b[d] = all[rng.Intn(len(all))].Cost[d] * (0.5 + 1.5*rng.Float64())
			}
		}
		bounds = append(bounds, b)
	}
	epochs := []uint64{0, o.Epoch()}
	if e := core.RestoredEpoch(o); e > 1 {
		epochs = append(epochs, e/2+1)
	}
	prefix := []*plan.Node{all[0]}
	for _, b := range bounds {
		for r := 0; r <= rM; r++ {
			if got, ok := o.RestoredFrontier(b, r); ok {
				restored++
				if want := pareto.Filter(o.Results(b, r)); !slices.Equal(got, want) {
					t.Fatalf("bounds %v, r %d: RestoredFrontier gives %v, the skyline of Results %v",
						b, r, pareto.Vectors(got), pareto.Vectors(want))
				}
			}
			for _, e := range epochs {
				want := pareto.Filter(o.AppendResultsAt(nil, b, r, e))
				got := o.AppendSkylineAt(slices.Clone(prefix), b, r, e)
				if got[0] != prefix[0] || !slices.Equal(got[1:], want) {
					t.Fatalf("bounds %v, r %d, epoch %d: AppendSkylineAt gives %v, the skyline of AppendResultsAt %v",
						b, r, e, pareto.Vectors(got[1:]), pareto.Vectors(want))
				}
			}
		}
	}
	return restored
}

// TestSkylineAtMatchesFilter pins an optimizer's publication input
// (DESIGN.md D20) against its definition: for cold optimizers and for
// exact, iso-remapped, re-costed and decoded restores of a converged
// and of a first-frontier snapshot — at the first frontier, converged
// (which inserts, from a first-frontier snapshot) and after a drag —
// and for a resumed large-drift snapshot that regenerates plans,
// AppendSkylineAt equals pareto.Filter of AppendResultsAt.
func TestSkylineAtMatchesFilter(t *testing.T) {
	qa, qb, remapCfg, perm := core.RemapQueryPair(t)
	qOld, qDrift, driftCfg := core.DriftQueryPair(t)
	chain, err := query.Synthetic(catalog.TPCH(1), 4, query.Chain, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	star, err := query.Synthetic(catalog.TPCH(1), 4, query.Star, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	chainCfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}

	converge := func(o *core.Optimizer) {
		for r := 0; r <= o.Config().MaxResolution(); r++ {
			o.Optimize(nil, r)
		}
	}
	firstFrontier := func(o *core.Optimizer) { o.Optimize(nil, 0) }
	drag := func(o *core.Optimizer) {
		rM := o.Config().MaxResolution()
		tight := tightBound(o, 0)
		for _, b := range []cost.Vector{tight, tight.Scale(1.6), nil} {
			for r := 0; r <= rM; r++ {
				o.Optimize(b, r)
			}
		}
	}

	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name string
		q    *query.Query
		cfg  core.Config
	}{{"chain4", chain, chainCfg}, {"star4", star, chainCfg}, {"remap", qa, remapCfg}} {
		t.Run(tc.name+"/cold", func(t *testing.T) {
			o := core.MustNewOptimizer(tc.q, tc.cfg)
			converge(o)
			n := checkSkylineAt(t, o, rng)
			drag(o)
			if n += checkSkylineAt(t, o, rng); n != 0 {
				t.Fatalf("a cold optimizer read %d frontiers off a snapshot", n)
			}
		})
	}

	var cases []restoreCase
	for _, src := range []struct {
		name    string
		prepare func(*core.Optimizer)
	}{{"converged", converge}, {"first", firstFrontier}} {
		cases = append(cases, restoreCases(t, "chain4-"+src.name, chain, chainCfg, src.prepare, nil, nil, nil)...)
		cases = append(cases, restoreCases(t, "star4-"+src.name, star, chainCfg, src.prepare, nil, nil, nil)...)
		cases = append(cases, restoreCases(t, "remap-"+src.name, qa, remapCfg, src.prepare, qb, perm, nil)...)
		cases = append(cases, restoreCases(t, "drift-"+src.name, qOld, driftCfg, src.prepare, nil, nil, qDrift)[2:]...)
	}
	inserted := false
	for _, rc := range cases {
		t.Run(rc.name, func(t *testing.T) {
			o, err := core.NewOptimizerFromSnapshot(rc.q, rc.cfg, rc.snap)
			if err != nil {
				t.Fatal(err)
			}
			if core.LevelSkylines(rc.snap) == nil {
				t.Fatal("the restore built no level skylines")
			}
			before := o.Stats()
			o.Optimize(nil, 0)
			if checkSkylineAt(t, o, rng) == 0 {
				t.Fatal("a fresh restore read no frontier off its snapshot")
			}
			converge(o)
			checkSkylineAt(t, o, rng)
			drag(o)
			checkSkylineAt(t, o, rng)
			if o.Stats().Minus(before).ResultInserts > 0 {
				inserted = true
			}
		})
	}
	if !inserted {
		t.Fatal("no drag inserted a result plan; the test lost its premise")
	}

	t.Run("drift-resumed", func(t *testing.T) {
		qOld, qDrift, driftCfg := core.LargeDriftQueryPair(t)
		src := core.MustNewOptimizer(qOld, driftCfg)
		converge(src)
		recosted, err := src.Snapshot().Recost(qDrift, driftCfg)
		if err != nil {
			t.Fatal(err)
		}
		recosted.DropPairs()
		o, err := core.NewOptimizerFromSnapshot(qDrift, driftCfg, recosted)
		if err != nil {
			t.Fatal(err)
		}
		converge(o)
		if o.Stats().ResultInserts == 0 {
			t.Fatal("the resumed snapshot inserted no result plan; the test lost its premise")
		}
		checkSkylineAt(t, o, rng)
	})
}

// TestReexportCarriesSkylines pins that an export whose root list is
// the one its optimizer was restored from carries that snapshot's level
// skylines, the very slices, so the next restore does not rebuild them;
// and that an export after the root list changed carries none.
func TestReexportCarriesSkylines(t *testing.T) {
	chain, err := query.Synthetic(catalog.TPCH(1), 4, query.Chain, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	src := core.MustNewOptimizer(chain, cfg)
	src.Optimize(nil, 0)
	snap := src.Snapshot()
	if core.LevelSkylines(snap) != nil {
		t.Fatal("a cold export carries level skylines")
	}
	o, err := core.NewOptimizerFromSnapshot(chain, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	o.Optimize(nil, 0) // covered: nothing changes
	want := core.LevelSkylines(snap)
	got := core.LevelSkylines(o.Snapshot())
	if len(got) != len(want) || &got[0] != &want[0] {
		t.Fatal("the untouched re-export does not carry the restored snapshot's level skylines")
	}

	before := o.Stats()
	for r := 1; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	if o.Stats().Minus(before).ResultInserts == 0 {
		t.Fatal("refining the first frontier inserted no result plan; the test lost its premise")
	}
	if core.LevelSkylines(o.Snapshot()) != nil {
		t.Fatal("an export whose root list changed carries the old level skylines")
	}
}

// TestConcurrentFirstRestores restores one never-restored snapshot on
// several goroutines at once, so that the lazy build of its images and
// level skylines races with itself and with their readers (run under
// -race); every restore must publish as its own result set says.
func TestConcurrentFirstRestores(t *testing.T) {
	star, err := query.Synthetic(catalog.TPCH(1), 4, query.Star, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	src := core.MustNewOptimizer(star, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
	}
	snap := src.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := core.NewOptimizerFromSnapshot(star, cfg, snap)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r <= cfg.MaxResolution(); r++ {
				o.Optimize(nil, r)
				want := pareto.Filter(o.AppendResultsAt(nil, nil, r, 0))
				if got := o.AppendSkylineAt(nil, nil, r, 0); !slices.Equal(got, want) {
					t.Errorf("r %d: a concurrent restore publishes %d plans, its result set %d", r, len(got), len(want))
				}
			}
		}()
	}
	wg.Wait()
}
