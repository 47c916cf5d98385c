package core

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
)

// TestPruneAllocsSteadyState pins the tentpole guarantee of this PR:
// procedure Prune performs zero heap allocations when the plan is
// discarded and at most amortized one (index-cell growth) when the plan
// enters a plan set. Future PRs that reintroduce per-call allocations
// (scaled-vector copies, query-box copies, visitor closures) fail here.
func TestPruneAllocsSteadyState(t *testing.T) {
	q := smallQuery(t)
	cfg := Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 5,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
	o := MustNewOptimizer(q, cfg)
	for r := 0; r < cfg.ResolutionLevels; r++ {
		o.Optimize(nil, r)
	}
	rM := cfg.MaxResolution()
	full := q.Tables()
	b := cost.Unbounded(cfg.Model.Space().Dim())
	frontier := o.Results(nil, rM)
	if len(frontier) == 0 {
		t.Fatal("empty frontier after convergence")
	}
	p := frontier[0]

	// Discard path: re-pruning an existing result plan finds an exact
	// dominator (or is approximated at maximal resolution) and inserts
	// nothing: zero allocations.
	if allocs := testing.AllocsPerRun(200, func() {
		o.prune(full, b, rM, p, false)
	}); allocs != 0 {
		t.Errorf("prune discard path allocates %.2f per call, want 0", allocs)
	}

	// Insert path: each plan undercuts every stored plan in the first
	// metric by more than the α-band, so it enters the result set. The
	// only permitted steady-state heap traffic is amortized growth of
	// the range-index cell the entry lands in (≤ 1 per call).
	const runs = 300
	nodes := make([]*plan.Node, runs+2) // AllocsPerRun adds a warm-up call
	factor := 1.0
	for i := range nodes {
		factor *= 0.98
		c := p.Cost.Clone()
		c[0] *= factor
		n := *p
		n.Cost = c
		nodes[i] = &n
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		o.prune(full, b, rM, nodes[i], false)
		i++
	}); allocs > 1 {
		t.Errorf("prune insert path allocates %.2f per call, want <= 1", allocs)
	}
}

// TestOptimizerScratchIsolation re-runs a converged series and verifies
// the scratch-based rewrite still produces the identical frontier as a
// fresh optimizer (guarding against scratch state leaking between
// invocations).
func TestOptimizerScratchIsolation(t *testing.T) {
	q := smallQuery(t)
	cfg := Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 4,
		TargetPrecision:  1.02,
		PrecisionStep:    0.1,
	}
	a := MustNewOptimizer(q, cfg)
	for r := 0; r < cfg.ResolutionLevels; r++ {
		a.Optimize(nil, r)
	}
	// Second regime: tighten, then relax — exercises candidate drains,
	// the Δ filter reset, and the visible-set pool recycling.
	frontier := a.Results(nil, cfg.MaxResolution())
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	tight := frontier[0].Cost.Scale(1.5)
	for r := 0; r < cfg.ResolutionLevels; r++ {
		a.Optimize(tight, r)
	}
	for r := 0; r < cfg.ResolutionLevels; r++ {
		a.Optimize(nil, r)
	}

	fresh := MustNewOptimizer(q, cfg)
	for r := 0; r < cfg.ResolutionLevels; r++ {
		fresh.Optimize(nil, r)
	}
	got := planSignatures(a.Results(nil, cfg.MaxResolution()))
	want := planSignatures(fresh.Results(nil, cfg.MaxResolution()))
	for sig := range want {
		if !got[sig] {
			t.Errorf("plan %q missing after interactive series", sig)
		}
	}
}

func planSignatures(plans []*plan.Node) map[string]bool {
	out := make(map[string]bool, len(plans))
	for _, p := range plans {
		out[p.Signature()] = true
	}
	return out
}

// TestCombinePairsMaterializesOnlyKept pins the cost-first enumeration:
// a join plan reaches the arena only when prune inserts it into a plan
// set, so arena IDs stay dense over retained plans and the discarded
// bulk of the enumeration is never allocated.
func TestCombinePairsMaterializesOnlyKept(t *testing.T) {
	for name, q := range map[string]*query.Query{"chain4": chain4(t), "star4": star4(t)} {
		cfg := defaultConfig()
		o := MustNewOptimizer(q, cfg)
		o.Optimize(nil, 0)
		// The first invocation generates the scans before any join; no
		// later one generates a scan.
		scans := 0
		q.Tables().ForEach(func(id int) { scans += len(cfg.Model.ScanPlans(q, id)) })
		for r := 1; r <= cfg.MaxResolution(); r++ {
			o.Optimize(nil, r)
		}
		st := o.Stats()
		if got, max := int(o.arena.NextID()), scans+st.ResultInserts+st.CandidateInserts; got > max {
			t.Errorf("%s: arena holds %d nodes, more than the %d scans + %d result inserts + %d candidate inserts",
				name, got, scans, st.ResultInserts, st.CandidateInserts)
		}
		if got := int(o.arena.NextID()); got != scans+st.PlansMaterialized {
			t.Errorf("%s: arena holds %d nodes, want %d scans + %d materialized", name, got, scans, st.PlansMaterialized)
		}
		if st.PlansMaterialized >= st.PlansGenerated/4 {
			t.Errorf("%s: materialized %d of %d generated plans, want fewer than a quarter",
				name, st.PlansMaterialized, st.PlansGenerated)
		}
		if st.WitnessHits == 0 || st.WitnessHits > st.ExactDominated {
			t.Errorf("%s: %d witness hits among %d exact verdicts", name, st.WitnessHits, st.ExactDominated)
		}
	}
}

// TestCombinePairsAllocsSteadyState is TestPruneAllocsSteadyState one
// level up: enumerating and pruning a pair whose alternatives are all
// exactly dominated — the fate of ~97 % of generated plans — performs no
// heap allocation at all.
func TestCombinePairsAllocsSteadyState(t *testing.T) {
	q := chain4(t)
	cfg := defaultConfig()
	o := MustNewOptimizer(q, cfg)
	rM := cfg.MaxResolution()
	for r := 0; r <= rM; r++ {
		o.Optimize(nil, r)
	}
	full := q.Tables()
	b := cost.Unbounded(cfg.Model.Space().Dim())

	// Find a split of the full query and a pair of its operands' result
	// plans whose every alternative an existing result plan dominates.
	// The pair is taken out of a copy of the folded base, so the lookup
	// misses and the pair is combined again; truncating the log, empty
	// since the fold, forgets it.
	o.foldPairs()
	held := o.pairBase
	var lefts, rights []*plan.Node
	full.AllSplits(func(q1, q2 tableset.Set) bool {
		for _, l := range o.ResultsFor(q1, nil, rM) {
			for _, rt := range o.ResultsFor(q2, nil, rM) {
				i, combined := slices.BinarySearch(held, pairID(l, rt))
				if !combined {
					continue
				}
				before := o.Stats()
				o.pairBase = slices.Delete(slices.Clone(held), i, i+1)
				o.combinePairs(full, b, rM, []*plan.Node{l}, []*plan.Node{rt}, false)
				o.pairLog = o.pairLog[:0]
				d := o.Stats().Minus(before)
				if d.PlansGenerated > 0 && d.ExactDominated == d.PlansGenerated {
					lefts, rights = []*plan.Node{l}, []*plan.Node{rt}
					return false
				}
				o.pairBase = held
			}
		}
		return true
	})
	if lefts == nil {
		t.Fatal("no pair with only exactly dominated alternatives")
	}
	before := o.Stats()
	if allocs := testing.AllocsPerRun(200, func() {
		o.combinePairs(full, b, rM, lefts, rights, false)
		o.pairLog = o.pairLog[:0]
	}); allocs != 0 {
		t.Errorf("re-combining an all-dominated pair allocates %.2f per call, want 0", allocs)
	}
	if d := o.Stats().Minus(before); d.PlansMaterialized != 0 || d.ExactDominated != d.PlansGenerated {
		t.Errorf("re-combination kept plans: %v", d)
	}
}

// TestCoveredOptimizeAllocs pins the cost of an invocation the
// completed-focus ledger covers (DESIGN.md D18): bookkeeping only, so no
// heap allocation at all — and reading the frontier afterwards allocates
// exactly the one slice it returns.
func TestCoveredOptimizeAllocs(t *testing.T) {
	q := chain4(t)
	cfg := defaultConfig()
	src := MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
	}
	o, err := NewOptimizerFromSnapshot(q, cfg, src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	tight := componentMedian(src, 0)
	before := o.Stats()
	if allocs := testing.AllocsPerRun(100, func() {
		o.Optimize(nil, 0)
		o.Optimize(tight, 0)
	}); allocs != 0 {
		t.Errorf("covered invocations allocate %.2f per pair of calls, want 0", allocs)
	}
	if d := o.Stats().Minus(before); d.CoveredInvocations != d.Invocations || d.PairsSkippedStale != 0 {
		t.Errorf("the invocations were not covered: %v", d)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if len(o.Results(tight, 0)) == 0 {
			t.Fatal("empty frontier")
		}
	}); allocs != 1 {
		t.Errorf("reading the frontier allocates %.2f times, want 1", allocs)
	}
}
