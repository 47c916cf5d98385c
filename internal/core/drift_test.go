package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/query"
)

// driftQuery builds the remapCatalog three-table shape (dim0 ⋈ fact0 ⋈
// tiny0) against an arbitrary catalog sharing remapCatalog's table
// names, with configurable fact filter and dim–fact join selectivity —
// the knobs the drift tests turn.
func driftQuery(cat *catalog.Catalog, factFilter, dimFactSel float64) *query.Query {
	dim, fact, tiny := cat.MustID("dim0"), cat.MustID("fact0"), cat.MustID("tiny0")
	return query.MustNew(cat, []int{dim, fact, tiny},
		[]query.JoinEdge{
			{A: dim, B: fact, Selectivity: dimFactSel},
			{A: fact, B: tiny, Selectivity: 0.1},
		},
		query.WithName("drift"), query.WithFilter(fact, factFilter))
}

// driftedCatalog applies stats overrides to remapCatalog.
func driftedCatalog(t *testing.T, overrides ...catalog.TableStats) *catalog.Catalog {
	t.Helper()
	cat, err := remapCatalog().WithStats(overrides)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// convergedSnapshot optimizes q to max resolution and snapshots.
func convergedSnapshot(t *testing.T, q *query.Query, cfg Config) *Snapshot {
	t.Helper()
	o := MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	return o.Snapshot()
}

func driftConfig() Config {
	return Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 4,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
}

func TestClassifyDrift(t *testing.T) {
	base := remapCatalog()
	cfg := driftConfig()
	snap := convergedSnapshot(t, driftQuery(base, 0.5, 1e-3), cfg)
	no := false

	cases := []struct {
		name   string
		query  *query.Query
		class  DriftClass
		minMag float64
		maxMag float64
	}{
		{
			name:  "identical stats",
			query: driftQuery(base, 0.5, 1e-3),
			class: DriftNone,
		},
		{
			name:   "rows within threshold",
			query:  driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 1.2e6}), 0.5, 1e-3),
			class:  DriftSmall,
			minMag: 0.19, maxMag: 0.21,
		},
		{
			name:   "row width within threshold",
			query:  driftQuery(driftedCatalog(t, catalog.TableStats{Name: "dim0", RowWidth: 110}), 0.5, 1e-3),
			class:  DriftSmall,
			minMag: 0.09, maxMag: 0.11,
		},
		{
			name:   "join selectivity within threshold",
			query:  driftQuery(base, 0.5, 1.4e-3),
			class:  DriftSmall,
			minMag: 0.39, maxMag: 0.41,
		},
		{
			name:   "rows beyond threshold",
			query:  driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 4e6}), 0.5, 1e-3),
			class:  DriftLarge,
			minMag: 2.9, maxMag: 3.1,
		},
		{
			name:   "join selectivity beyond threshold",
			query:  driftQuery(base, 0.5, 2e-3),
			class:  DriftLarge,
			minMag: 0.9, maxMag: 1.1,
		},
		{
			name:  "index dropped",
			query: driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", HasIndex: &no}), 0.5, 1e-3),
			class: DriftIncompatible,
		},
		{
			name: "different table set",
			query: func() *query.Query {
				return query.MustNew(base, []int{base.MustID("dim0"), base.MustID("fact1"), base.MustID("tiny0")},
					[]query.JoinEdge{
						{A: base.MustID("dim0"), B: base.MustID("fact1"), Selectivity: 1e-3},
						{A: base.MustID("fact1"), B: base.MustID("tiny0"), Selectivity: 0.1},
					})
			}(),
			class: DriftIncompatible,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class, mag := snap.ClassifyDrift(tc.query, 0.5)
			if class != tc.class {
				t.Fatalf("class = %v (mag %g), want %v", class, mag, tc.class)
			}
			if mag < tc.minMag || (tc.maxMag > 0 && mag > tc.maxMag) {
				t.Fatalf("magnitude = %g, want in [%g, %g]", mag, tc.minMag, tc.maxMag)
			}
		})
	}

	// A snapshot that never recorded statistics (pre-drift format)
	// classifies incompatible against everything.
	bare := &Snapshot{}
	if class, _ := bare.ClassifyDrift(driftQuery(base, 0.5, 1e-3), 0); class != DriftIncompatible {
		t.Fatalf("statless snapshot classified %v, want incompatible", class)
	}
}

// TestDriftSmallRecostCostIdentical is the small-drift acceptance pin:
// a converged snapshot re-costed for a query whose statistics moved a
// little must restore into an optimizer that reaches the target without
// generating a single new plan (the pair memo survives re-costing, so
// refinement only re-prunes), whose plans carry exactly the cost vectors
// a fresh optimization under the new statistics computes for them, and
// whose frontier is as good as the fresh one: each covers the other
// within the target precision. The two need not hold the same plans —
// which of two plans within α_T of each other survives depends on the
// order pruning met them in, and a re-costed list restores in the
// snapshot's order, not in the order its new costs would enumerate.
func TestDriftSmallRecostCostIdentical(t *testing.T) {
	cfg := driftConfig()
	qOld := driftQuery(remapCatalog(), 0.5, 1e-3)
	snap := convergedSnapshot(t, qOld, cfg)

	// Drift within the target-precision slack (maxRel ≤ αT − 1 = 1%).
	// Larger small-class drift re-costs just as soundly but may surface
	// boundary plans the old pruning discarded — which is why the restore
	// re-prunes instead of trusting the cached frontier verbatim.
	qNew := driftQuery(driftedCatalog(t,
		catalog.TableStats{Name: "fact0", Rows: 1.01e6},
	), 0.5, 1e-3)
	class, mag := snap.ClassifyDrift(qNew, 0.5)
	if class != DriftSmall {
		t.Fatalf("drift classified %v (mag %g), want small", class, mag)
	}

	recosted, err := snap.Recost(qNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewOptimizerFromSnapshot(qNew, cfg, recosted)
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewOptimizer(qNew, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		restored.Optimize(nil, r)
		fresh.Optimize(nil, r)
	}
	if n := restored.Stats().PlansGenerated; n != 0 {
		t.Errorf("small-drift restore regenerated %d plans, want 0", n)
	}
	got, want := restored.Results(nil, cfg.MaxResolution()), fresh.Results(nil, cfg.MaxResolution())
	gotVs, wantVs := pareto.Vectors(got), pareto.Vectors(want)
	if !pareto.Covers(gotVs, wantVs, cfg.TargetPrecision) {
		t.Errorf("the restored frontier covers the fresh one only within %g, want α_T = %g",
			pareto.ApproxFactor(gotVs, wantVs), cfg.TargetPrecision)
	}
	if !pareto.Covers(wantVs, gotVs, cfg.TargetPrecision) {
		t.Errorf("the fresh frontier covers the restored one only within %g, want α_T = %g",
			pareto.ApproxFactor(wantVs, gotVs), cfg.TargetPrecision)
	}
	freshCost := map[string]cost.Vector{}
	for _, p := range want {
		freshCost[p.Signature()] = p.Cost
	}
	shared := 0
	for _, p := range got {
		if c, ok := freshCost[p.Signature()]; ok {
			shared++
			if !c.Equal(p.Cost) {
				t.Errorf("plan %s re-costed to %v, fresh enumeration computes %v", p.Signature(), p.Cost, c)
			}
		}
	}
	if shared == 0 {
		t.Error("the two frontiers share no plan; the cost check compared nothing")
	}
}

// TestDriftLargeResumeConverges is the large-drift acceptance pin:
// after Recost + DropPairs, refinement resumed from the cached plan
// sets must reach a frontier that ε-dominates the cold optimizer's
// frontier at the same target precision, within a bounded generation
// budget (at most twice the cold optimizer's plan generation — the
// resume re-enumerates pairs against the cached context but never
// explodes).
func TestDriftLargeResumeConverges(t *testing.T) {
	cfg := driftConfig()
	qOld := driftQuery(remapCatalog(), 0.5, 1e-3)
	snap := convergedSnapshot(t, qOld, cfg)

	qNew := driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 4e6}), 0.5, 1e-3)
	class, mag := snap.ClassifyDrift(qNew, 0.5)
	if class != DriftLarge {
		t.Fatalf("drift classified %v (mag %g), want large", class, mag)
	}

	recosted, err := snap.Recost(qNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recosted.DropPairs()
	restored, err := NewOptimizerFromSnapshot(qNew, cfg, recosted)
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNewOptimizer(qNew, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		restored.Optimize(nil, r)
		fresh.Optimize(nil, r)
	}

	// Budget: resuming may regenerate combinations, but it is bounded by
	// the cold optimizer's own enumeration work.
	gotGen, coldGen := restored.Stats().PlansGenerated, fresh.Stats().PlansGenerated
	if gotGen > 2*coldGen {
		t.Errorf("large-drift resume generated %d plans, budget 2×cold = %d", gotGen, 2*coldGen)
	}

	// Quality: every cold frontier plan must be ε-dominated (per
	// dimension, within the target precision factor) by some resumed
	// plan — the anytime guarantee the resumed session still honors.
	resumed := restored.Results(nil, cfg.MaxResolution())
	for _, f := range fresh.Results(nil, cfg.MaxResolution()) {
		covered := false
		for _, r := range resumed {
			ok := true
			for d := range f.Cost {
				if r.Cost[d] > f.Cost[d]*cfg.TargetPrecision {
					ok = false
					break
				}
			}
			if ok {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("cold frontier plan %s (cost %v) not ε-dominated by the resumed frontier", f.Signature(), f.Cost)
		}
	}
}

// TestRecostDoesNotMutateSource pins the D15 sharing rule: re-costing
// must leave the source snapshot — shared with live sessions and other
// cache readers — bitwise untouched, and must not alias any cost
// vector between source and result.
func TestRecostDoesNotMutateSource(t *testing.T) {
	cfg := driftConfig()
	qOld := driftQuery(remapCatalog(), 0.5, 1e-3)
	snap := convergedSnapshot(t, qOld, cfg)

	type probe struct {
		cost []float64
		copy []float64
	}
	var probes []probe
	for _, entries := range snap.res {
		for _, e := range entries {
			probes = append(probes, probe{
				cost: e.Payload.Cost,
				copy: append([]float64(nil), e.Payload.Cost...),
			})
		}
	}
	if len(probes) == 0 {
		t.Fatal("no plan entries to probe")
	}

	qNew := driftQuery(driftedCatalog(t, catalog.TableStats{Name: "fact0", Rows: 2e6}), 0.5, 1e-3)
	recosted, err := snap.Recost(qNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		for d := range p.cost {
			if p.cost[d] != p.copy[d] {
				t.Fatalf("source snapshot cost vector %d mutated by Recost: %v vs %v", i, p.cost, p.copy)
			}
		}
	}
	// No result vector may alias a source vector (fresh allocation rule).
	srcVecs := map[*float64]bool{}
	for _, p := range probes {
		if len(p.cost) > 0 {
			srcVecs[&p.cost[0]] = true
		}
	}
	for _, entries := range recosted.res {
		for _, e := range entries {
			if len(e.Payload.Cost) > 0 && srcVecs[&e.Payload.Cost[0]] {
				t.Fatal("recosted snapshot aliases a source cost vector")
			}
		}
	}
}

// TestRecostRejectsMismatches: configuration echoes and table sets must
// match — Recost fails loudly instead of producing wrong costs.
func TestRecostRejectsMismatches(t *testing.T) {
	cfg := driftConfig()
	qOld := driftQuery(remapCatalog(), 0.5, 1e-3)
	snap := convergedSnapshot(t, qOld, cfg)

	other := cfg
	other.TargetPrecision = 1.5
	if _, err := snap.Recost(qOld, other); err == nil {
		t.Error("recost accepted a mismatched configuration")
	}

	base := remapCatalog()
	foreign := query.MustNew(base, []int{base.MustID("dim1"), base.MustID("fact1"), base.MustID("tiny1")},
		[]query.JoinEdge{
			{A: base.MustID("dim1"), B: base.MustID("fact1"), Selectivity: 1e-3},
			{A: base.MustID("fact1"), B: base.MustID("tiny1"), Selectivity: 0.1},
		})
	if _, err := snap.Recost(foreign, cfg); err == nil {
		t.Error("recost accepted a query over a different table set")
	}
}
