package core_test

import (
	"bytes"
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

// checkSkylineAt checks an optimizer's publication inputs for
// unbounded and seeded random bounds and every resolution. The skyline
// of Results(b, r) must be the merge of the skylines of Results(b, r-1)
// and of AppendResultsAt(b, r, 0), pointer for pointer and in order:
// the split a session publishes a raised level by. Where
// RestoredFrontier answers, it must give the skyline of Results(b, r)
// too, and the render table must hold every plan it gives, with
// plan.Node.AppendJSON's bytes. checkSkylineAt returns how often
// RestoredFrontier answered.
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
	for _, b := range bounds {
		var below []*plan.Node
		for r := 0; r <= rM; r++ {
			want := pareto.Filter(o.Results(b, r))
			if got := pareto.Merge(below, pareto.Filter(o.AppendResultsAt(nil, b, r, 0))); !slices.Equal(got, want) {
				t.Fatalf("bounds %v, r %d: the level split gives %v, the skyline of Results %v",
					b, r, pareto.Vectors(got), pareto.Vectors(want))
			}
			below = want
			got, ok := o.RestoredFrontier(b, r)
			if !ok {
				continue
			}
			restored++
			if !slices.Equal(got, want) {
				t.Fatalf("bounds %v, r %d: RestoredFrontier gives %v, the skyline of Results %v",
					b, r, pareto.Vectors(got), pareto.Vectors(want))
			}
			for _, p := range got {
				rendered, ok := o.RenderTable().Lookup(p)
				if want, _ := p.AppendJSON(nil); !ok || !bytes.Equal(rendered, want) {
					t.Fatalf("bounds %v, r %d: the render table gives %q (%v) for a restored plan, AppendJSON %q",
						b, r, rendered, ok, want)
				}
			}
		}
	}
	return restored
}

// TestSkylineAtMatchesFilter pins an optimizer's publication inputs
// (DESIGN.md D20) against their definition (checkSkylineAt): for cold
// optimizers and for exact, iso-remapped, re-costed and decoded
// restores of a converged and of a first-frontier snapshot — at the
// first frontier, converged (which inserts, from a first-frontier
// snapshot) and after a drag — and for a resumed large-drift snapshot
// that regenerates plans. A cold optimizer must never read a frontier
// off a snapshot, and a fresh restore must.
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
			if core.Frontiers(rc.snap) == nil {
				t.Fatal("the restore built no frontiers")
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
// the one its optimizer was restored from carries that snapshot's
// frontiers and render table, the very ones, so the next restore
// neither rebuilds nor re-renders them; and that an export after the
// root list changed carries none.
func TestReexportCarriesSkylines(t *testing.T) {
	chain, err := query.Synthetic(catalog.TPCH(1), 4, query.Chain, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	src := core.MustNewOptimizer(chain, cfg)
	src.Optimize(nil, 0)
	snap := src.Snapshot()
	if core.Frontiers(snap) != nil {
		t.Fatal("a cold export carries frontiers")
	}
	o, err := core.NewOptimizerFromSnapshot(chain, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	o.Optimize(nil, 0) // covered: nothing changes
	reexport := o.Snapshot()
	want := core.Frontiers(snap)
	got := core.Frontiers(reexport)
	if len(got) != len(want) || &got[0] != &want[0] {
		t.Fatal("the untouched re-export does not carry the restored snapshot's frontiers")
	}
	again, err := core.NewOptimizerFromSnapshot(chain, cfg, reexport)
	if err != nil {
		t.Fatal(err)
	}
	if again.RenderTable() == nil || again.RenderTable() != o.RenderTable() {
		t.Fatal("a restore of the untouched re-export does not share the render table")
	}

	before := o.Stats()
	for r := 1; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	if o.Stats().Minus(before).ResultInserts == 0 {
		t.Fatal("refining the first frontier inserted no result plan; the test lost its premise")
	}
	if core.Frontiers(o.Snapshot()) != nil {
		t.Fatal("an export whose root list changed carries the old frontiers")
	}
}

// TestConcurrentFirstRestores restores one never-restored snapshot on
// several goroutines at once, so that the lazy build of its images,
// frontiers and render table races with itself and with their readers
// (run under -race); every restore must read its frontier off the
// snapshot as its own result set says, and find each plan's bytes in
// the render table.
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
				want := pareto.Filter(o.Results(nil, r))
				got, ok := o.RestoredFrontier(nil, r)
				if !ok || !slices.Equal(got, want) {
					t.Errorf("r %d: a concurrent restore reads %d plans (%v), its result set %d", r, len(got), ok, len(want))
				}
				for _, p := range got {
					if _, ok := o.RenderTable().Lookup(p); !ok {
						t.Errorf("r %d: the render table misses a restored plan", r)
					}
				}
			}
		}()
	}
	wg.Wait()
}
