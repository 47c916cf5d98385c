package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
)

// smallQuery builds a deterministic 3-table query for unit tests.
func smallQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.MustNew([]catalog.Table{
		{Name: "a", Rows: 5000, RowWidth: 80, HasIndex: true, SamplingRates: []float64{0.1, 0.5, 1}},
		{Name: "b", Rows: 20000, RowWidth: 60, HasIndex: true, SamplingRates: []float64{0.25, 1}},
		{Name: "c", Rows: 300, RowWidth: 40, SamplingRates: []float64{1}},
	})
	return query.MustNew(cat, []int{0, 1, 2}, []query.JoinEdge{
		{A: 0, B: 1, Selectivity: 1e-3},
		{A: 1, B: 2, Selectivity: 1e-2},
	}, query.WithName("small"), query.WithFilter(0, 0.2))
}

// chain4 and star4 are the benchmark's cold_distinct query shapes: a
// 4-table chain and a 4-table star over the TPC-H catalog with seeded
// selectivities and filters.
func chain4(t testing.TB) *query.Query { return synthetic4(t, query.Chain, 11) }
func star4(t testing.TB) *query.Query  { return synthetic4(t, query.Star, 12) }

func synthetic4(t testing.TB, tp query.Topology, seed int64) *query.Query {
	t.Helper()
	q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func defaultConfig() Config {
	return Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 5,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
}

func TestConfigValidation(t *testing.T) {
	q := smallQuery(t)
	bad := []Config{
		{Model: nil, ResolutionLevels: 1, TargetPrecision: 1.1},
		{Model: costmodel.Default(), ResolutionLevels: 0, TargetPrecision: 1.1},
		{Model: costmodel.Default(), ResolutionLevels: 1, TargetPrecision: 1},
		{Model: costmodel.Default(), ResolutionLevels: 1, TargetPrecision: 0.5},
		{Model: costmodel.Default(), ResolutionLevels: 1, TargetPrecision: 1.1, PrecisionStep: -1},
	}
	for i, cfg := range bad {
		if _, err := NewOptimizer(q, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewOptimizer(nil, defaultConfig()); err == nil {
		t.Error("nil query should be rejected")
	}
	if _, err := NewOptimizer(q, defaultConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewOptimizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewOptimizer did not panic")
		}
	}()
	MustNewOptimizer(nil, defaultConfig())
}

func TestAlphaSchedule(t *testing.T) {
	cfg := Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 5,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
	// α_0 = α_T + α_S, α_rM = α_T, strictly decreasing.
	if got := cfg.AlphaFor(0); math.Abs(got-1.06) > 1e-12 {
		t.Errorf("α_0 = %g, want 1.06", got)
	}
	if got := cfg.AlphaFor(4); got != 1.01 {
		t.Errorf("α_rM = %g, want 1.01", got)
	}
	for r := 1; r <= 4; r++ {
		if cfg.AlphaFor(r) >= cfg.AlphaFor(r-1) {
			t.Errorf("α_%d=%g not below α_%d=%g", r, cfg.AlphaFor(r), r-1, cfg.AlphaFor(r-1))
		}
	}
	// Single level degenerates to α_T.
	one := cfg
	one.ResolutionLevels = 1
	if got := one.AlphaFor(0); got != 1.01 {
		t.Errorf("single-level α = %g", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AlphaFor out of range did not panic")
			}
		}()
		cfg.AlphaFor(5)
	}()
}

func TestOptimizeProducesCompletePlans(t *testing.T) {
	q := smallQuery(t)
	o := MustNewOptimizer(q, defaultConfig())
	o.Optimize(nil, 0)
	results := o.Results(nil, 0)
	if len(results) == 0 {
		t.Fatal("no result plans after first invocation")
	}
	for _, p := range results {
		if p.Tables != q.Tables() {
			t.Errorf("result plan covers %v, want %v", p.Tables, q.Tables())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("invalid plan %v: %v", p, err)
		}
	}
	if o.Stats().Invocations != 1 {
		t.Errorf("invocations = %d", o.Stats().Invocations)
	}
}

func TestOptimizePanicsOnBadInput(t *testing.T) {
	q := smallQuery(t)
	o := MustNewOptimizer(q, defaultConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad resolution did not panic")
			}
		}()
		o.Optimize(nil, 99)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad bounds dim did not panic")
			}
		}()
		o.Optimize(cost.Vec(1), 0)
	}()
}

// Theorems 1 and 2: after Optimize(b, r), the result set restricted to
// [0..b, 0..r] for every connected k-table subset is an α_r^k-approximate
// b-bounded Pareto plan set. We verify against the exhaustive frontier.
func TestApproximationGuaranteeUnbounded(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	o := MustNewOptimizer(q, cfg)
	truth := baseline.Exhaustive(q, cfg.Model, nil)

	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
		alpha := cfg.AlphaFor(r)
		q.Tables().Subsets(func(sub tableset.Set) bool {
			if !q.Connected(sub) {
				return true
			}
			factor := math.Pow(alpha, float64(sub.Len()))
			approx := pareto.Vectors(o.ResultsFor(sub, nil, r))
			ref := pareto.Vectors(truth.Plans[sub])
			if !pareto.Covers(approx, ref, factor) {
				t.Fatalf("r=%d sub=%v: result set not α^k=%g-approximate (factor needed %g)",
					r, sub, factor, pareto.ApproxFactor(approx, ref))
			}
			return true
		})
	}
}

// Same guarantee under finite bounds: only reference plans with
// α^k·c(p) ⪯ b must be covered.
func TestApproximationGuaranteeBounded(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	truth := baseline.Exhaustive(q, cfg.Model, nil)

	// Derive interesting finite bounds from the unbounded frontier: the
	// median cost of the true final frontier.
	final := pareto.Vectors(truth.Plans[q.Tables()])
	if len(final) == 0 {
		t.Fatal("empty ground-truth frontier")
	}
	b := cost.NewVector(final[0].Dim())
	for d := range b {
		for _, v := range final {
			b[d] += v[d]
		}
		b[d] = b[d] / float64(len(final)) * 1.5
	}

	o := MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(b, r)
		alpha := cfg.AlphaFor(r)
		q.Tables().Subsets(func(sub tableset.Set) bool {
			if !q.Connected(sub) {
				return true
			}
			factor := math.Pow(alpha, float64(sub.Len()))
			approx := pareto.Vectors(o.ResultsFor(sub, b, r))
			ref := pareto.Vectors(truth.Plans[sub])
			if !pareto.CoversBounded(approx, ref, factor, b) {
				t.Fatalf("r=%d sub=%v: bounded guarantee violated", r, sub)
			}
			return true
		})
	}
}

// The incremental guarantee must survive arbitrary bound changes,
// including relaxations that reset the resolution (the paper's
// interactive scenario).
func TestApproximationGuaranteeUnderBoundChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 12; trial++ {
		cat := catalog.Random(rng, 4, 100, 1e5)
		tp := []query.Topology{query.Chain, query.Star, query.Cycle}[rng.Intn(3)]
		q, err := query.Synthetic(cat, 3+rng.Intn(2), tp, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 4,
			TargetPrecision:  1.02,
			PrecisionStep:    0.2,
		}
		o := MustNewOptimizer(q, cfg)
		truth := baseline.Exhaustive(q, cfg.Model, nil)
		finalTruth := pareto.Vectors(truth.Plans[q.Tables()])
		if len(finalTruth) == 0 {
			t.Fatal("empty ground truth")
		}

		// Random legal interaction script (every regime starts at
		// resolution 0, resolution ascends within a regime): refine,
		// tighten, relax. Across regimes the guarantee weakens to the
		// compounded factor Γ^k (see Config.CrossRegimeAlpha).
		r := 0
		b := cost.Unbounded(cfg.Model.Space().Dim())
		o.Optimize(b, r)
		gamma := cfg.CrossRegimeAlpha()
		for step := 0; step < 10; step++ {
			switch rng.Intn(3) {
			case 0: // refine
				if r < cfg.MaxResolution() {
					r++
				}
			case 1: // tighten bounds around a random truth point
				v := finalTruth[rng.Intn(len(finalTruth))]
				b = v.Scale(1.5 + rng.Float64())
				r = 0
			case 2: // relax fully
				b = cost.Unbounded(cfg.Model.Space().Dim())
				r = 0
			}
			o.Optimize(b, r)
			q.Tables().Subsets(func(sub tableset.Set) bool {
				if !q.Connected(sub) {
					return true
				}
				factor := math.Pow(gamma, float64(sub.Len()))
				approx := pareto.Vectors(o.ResultsFor(sub, b, r))
				ref := pareto.Vectors(truth.Plans[sub])
				if !pareto.CoversBounded(approx, ref, factor, b) {
					t.Fatalf("trial %d step %d r=%d b=%v sub=%v: guarantee violated (needed %g, allowed %g)",
						trial, step, r, b, sub, pareto.ApproxFactor(approx, ref), factor)
				}
				return true
			})
		}
	}
}

// Lemma 5: each possible plan is generated at most once across an
// invocation series.
func TestEachPlanGeneratedOnce(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	seen := map[string]int{}
	cfg.Hooks.PlanGenerated = func(p *plan.Node) {
		seen[p.Signature()]++
	}
	o := MustNewOptimizer(q, cfg)
	// Refinement series followed by bound changes.
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	b := cost.Vec(1e7, 4, 0.5)
	o.Optimize(b, 0)
	o.Optimize(b, 1)
	o.Optimize(nil, 0)
	o.Optimize(nil, cfg.MaxResolution())
	for sig, count := range seen {
		if count > 1 {
			t.Errorf("plan %s generated %d times", sig, count)
		}
	}
	if o.Stats().PlansGenerated != len(seen) {
		t.Errorf("stats PlansGenerated=%d, distinct=%d", o.Stats().PlansGenerated, len(seen))
	}
}

// Lemma 6: each sub-plan pair is combined at most once. The series
// alternates tightening, whose Δ-filtered invocations add pairs to the
// log, with relaxing, whose invocations run without the Δ filter: they
// fold the log and look old × old pairs up in the base. It runs cold and
// restored from a snapshot converged under the tight bounds, and the
// memo exported afterwards is the restored base plus exactly the pairs
// combined.
func TestEachPairCombinedOnce(t *testing.T) {
	queries := []struct {
		name string
		q    *query.Query
	}{
		{"small", smallQuery(t)},
		{"chain4", chain4(t)},
		{"star4", star4(t)},
	}
	for _, qc := range queries {
		cfg := defaultConfig()
		rM := cfg.MaxResolution()
		src := MustNewOptimizer(qc.q, cfg)
		src.Optimize(nil, 0)
		tight := componentMedian(src, 0)
		for r := 0; r <= rM; r++ {
			src.Optimize(tight, r)
		}
		snap := src.Snapshot()
		for _, restored := range []bool{false, true} {
			seen := map[uint64]int{}
			c := cfg
			c.Hooks.PairCombined = func(l, r *plan.Node) { seen[pairID(l, r)]++ }
			name, o, base := qc.name+"/cold", MustNewOptimizer(qc.q, c), []uint64(nil)
			if restored {
				var err error
				if o, err = NewOptimizerFromSnapshot(qc.q, c, snap); err != nil {
					t.Fatal(err)
				}
				name, base = qc.name+"/restored", snap.pairs
			}
			// folded records an invocation that looked pairs up after
			// folding a non-empty log.
			folded := false
			step := func(b cost.Vector, r int) {
				logged, before := len(o.pairLog), o.Stats().PairsSkippedStale
				o.Optimize(b, r)
				folded = folded || logged > 0 && o.Stats().PairsSkippedStale > before
			}
			for r := 0; r <= rM; r++ {
				step(tight, r)
				step(nil, r)
			}
			step(tight, 0)
			step(nil, rM)

			want := slices.Clone(base)
			for k, n := range seen {
				if n > 1 {
					t.Errorf("%s: pair %#x combined %d times", name, k, n)
				}
				want = append(want, k)
			}
			slices.Sort(want)
			if got := o.exportPairs(); !strictlyAscending(got) || !slices.Equal(got, want) {
				t.Errorf("%s: exported %d pairs (strictly ascending %v), want %d restored + %d combined",
					name, len(got), strictlyAscending(got), len(base), len(seen))
			}
			if !folded {
				t.Errorf("%s: no invocation looked a pair up after a fold; the series lost its premise", name)
			}
		}
	}
}

// Lemma 7: each generated plan is retrieved from the candidate set at
// most r_M + 1 times.
func TestCandidateRetrievalBound(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	retrievals := map[*plan.Node]int{}
	cfg.Hooks.CandidateRetrieved = func(p *plan.Node) {
		retrievals[p]++
	}
	o := MustNewOptimizer(q, cfg)
	// Long series with repeated bound changes to provoke retrievals.
	rM := cfg.MaxResolution()
	for cycle := 0; cycle < 4; cycle++ {
		for r := 0; r <= rM; r++ {
			o.Optimize(nil, r)
		}
		o.Optimize(cost.Vec(1e6, 2, 0.2), 0)
		o.Optimize(cost.Vec(1e8, 8, 1), rM)
	}
	limit := cfg.ResolutionLevels // r_M + 1
	for p, count := range retrievals {
		if count > limit {
			t.Errorf("plan %v retrieved %d times, limit %d", p, count, limit)
		}
	}
}

// The anytime property: refining resolution must never shrink the result
// set, and plan counts grow monotonically with resolution.
func TestResolutionRefinementMonotone(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	o := MustNewOptimizer(q, cfg)
	prev := -1
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
		n := len(o.Results(nil, r))
		if n < prev {
			t.Errorf("result count shrank from %d to %d at r=%d", prev, n, r)
		}
		prev = n
	}
}

// Incrementality: re-invoking with identical parameters must do no plan
// generation work.
func TestRepeatInvocationIsFree(t *testing.T) {
	q := smallQuery(t)
	o := MustNewOptimizer(q, defaultConfig())
	o.Optimize(nil, 2)
	before := o.Stats()
	o.Optimize(nil, 2)
	delta := o.Stats().Minus(before)
	if delta.PlansGenerated != 0 {
		t.Errorf("repeat invocation generated %d plans", delta.PlansGenerated)
	}
	if delta.CandidateRetrievals != 0 {
		t.Errorf("repeat invocation retrieved %d candidates", delta.CandidateRetrievals)
	}
}

// Tightening bounds must never require regenerating plans.
func TestTighteningBoundsGeneratesNothing(t *testing.T) {
	q := smallQuery(t)
	o := MustNewOptimizer(q, defaultConfig())
	o.Optimize(nil, 3)
	results := o.Results(nil, 3)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// Tighten to a box around one known plan.
	b := results[0].Cost.Scale(1.0)
	before := o.Stats()
	o.Optimize(b, 0)
	delta := o.Stats().Minus(before)
	if delta.PlansGenerated != 0 {
		t.Errorf("tightening generated %d plans", delta.PlansGenerated)
	}
}

// Relaxing bounds reactivates stored candidates instead of regenerating.
func TestRelaxingBoundsPromotesCandidates(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	o := MustNewOptimizer(q, cfg)
	// Start with tight bounds so much of the space lands in candidates.
	tight := cost.Vec(50, 2, 0.1)
	o.Optimize(tight, 0)
	candBefore := o.CandidateCount()
	if candBefore == 0 {
		t.Fatal("expected candidates under tight bounds")
	}
	// Relax: candidates should be drained and (partially) promoted.
	before := o.Stats()
	o.Optimize(nil, 0)
	delta := o.Stats().Minus(before)
	if delta.CandidateRetrievals == 0 {
		t.Error("relaxation retrieved no candidates")
	}
	if len(o.Results(nil, 0)) == 0 {
		t.Error("no results after relaxation")
	}
}

// The final frontier of IAMA, one-shot, and memoryless must mutually
// cover each other at the composed approximation factor.
func TestAgreementWithBaselines(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	o := MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	iama := pareto.Vectors(o.Results(nil, cfg.MaxResolution()))

	oneShot, err := baseline.OneShot(q, cfg.Model, cfg.TargetPrecision, nil)
	if err != nil {
		t.Fatal(err)
	}
	osVecs := pareto.Vectors(oneShot.Final(q))

	truth := pareto.Vectors(baseline.Exhaustive(q, cfg.Model, nil).Plans[q.Tables()])
	n := float64(q.NumTables())
	factor := math.Pow(cfg.TargetPrecision, n)

	if !pareto.Covers(iama, truth, factor) {
		t.Errorf("IAMA does not cover truth at %g (needs %g)", factor, pareto.ApproxFactor(iama, truth))
	}
	if !pareto.Covers(osVecs, truth, factor) {
		t.Errorf("one-shot does not cover truth at %g (needs %g)", factor, pareto.ApproxFactor(osVecs, truth))
	}
}

// Ablation D2: pruning against all resolutions still satisfies the
// final-resolution guarantee.
func TestAblationPruneAgainstAll(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	cfg.PruneAgainstAll = true
	o := MustNewOptimizer(q, cfg)
	truth := baseline.Exhaustive(q, cfg.Model, nil)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
	}
	r := cfg.MaxResolution()
	factor := math.Pow(cfg.AlphaFor(r), float64(q.NumTables()))
	approx := pareto.Vectors(o.Results(nil, r))
	ref := pareto.Vectors(truth.Plans[q.Tables()])
	if !pareto.Covers(approx, ref, factor) {
		t.Errorf("prune-against-all breaks coverage (needs %g, allowed %g)",
			pareto.ApproxFactor(approx, ref), factor)
	}
}

// Ablation D3: disabling the Δ filter must not change the result
// frontier, only the amount of pair-enumeration work.
func TestAblationNoDeltaFilterSameResults(t *testing.T) {
	q := smallQuery(t)
	run := func(disable bool) ([]cost.Vector, Stats) {
		cfg := defaultConfig()
		cfg.DisableDeltaFilter = disable
		o := MustNewOptimizer(q, cfg)
		for r := 0; r <= cfg.MaxResolution(); r++ {
			o.Optimize(nil, r)
		}
		return pareto.Vectors(o.Results(nil, cfg.MaxResolution())), o.Stats()
	}
	withDelta, statsDelta := run(false)
	without, statsNoDelta := run(true)
	if !pareto.Covers(withDelta, without, 1) || !pareto.Covers(without, withDelta, 1) {
		t.Error("Δ filter changed the result frontier")
	}
	// Without the filter the memo absorbs the redundancy: stale-pair
	// skips appear. (The Δ run enumerates pairs in a different order, so
	// which of several mutually-approximating plans wins the result slot
	// may differ — exact pair counts are not comparable, only the
	// frontiers and the absence of duplicate work are.)
	if statsNoDelta.PairsSkippedStale == 0 {
		t.Error("expected stale pair skips without Δ filter")
	}
	if statsDelta.PairsSkippedStale != 0 {
		t.Errorf("Δ-filtered run hit the memo %d times; the filter should make memo hits impossible in a monotone series",
			statsDelta.PairsSkippedStale)
	}
}

// Order-aware pruning keeps order-providing plans that cost-only pruning
// would drop; disabling it must still satisfy the cost-coverage theorem.
func TestAblationOrderAwarePruning(t *testing.T) {
	q := smallQuery(t)
	cfg := defaultConfig()
	cfg.DisableOrderAwarePruning = true
	o := MustNewOptimizer(q, cfg)
	truth := baseline.Exhaustive(q, cfg.Model, nil)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		o.Optimize(nil, r)
		alpha := cfg.AlphaFor(r)
		factor := math.Pow(alpha, float64(q.NumTables()))
		approx := pareto.Vectors(o.Results(nil, r))
		ref := pareto.Vectors(truth.Plans[q.Tables()])
		if !pareto.Covers(approx, ref, factor) {
			t.Fatalf("r=%d: cost-only pruning violates coverage", r)
		}
	}
}

func TestResultsForUnknownSubset(t *testing.T) {
	q := smallQuery(t)
	o := MustNewOptimizer(q, defaultConfig())
	if got := o.ResultsFor(tableset.Of(0, 2), nil, 0); got != nil {
		t.Errorf("unplanned subset returned %v", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Invocations: 2, PlansGenerated: 10}
	if got := s.String(); got == "" {
		t.Error("empty Stats string")
	}
}

// Property: across random queries and random invocation scripts, the
// guarantee of Theorem 2 holds for the full query set.
func TestQuickRandomizedGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		cat := catalog.Random(rng, 4, 50, 5e4)
		q, err := query.Synthetic(cat, 4, query.Clique, rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 1 + rng.Intn(6),
			TargetPrecision:  1.001 + rng.Float64()*0.1,
			PrecisionStep:    rng.Float64() * 0.5,
		}
		o := MustNewOptimizer(q, cfg)
		truth := pareto.Vectors(baseline.Exhaustive(q, cfg.Model, nil).Plans[q.Tables()])
		// Legal ascending series: the paper's within-regime guarantee
		// α_r^n applies exactly.
		for r := 0; r <= cfg.MaxResolution(); r++ {
			if rng.Intn(3) == 0 && r > 0 {
				// Re-invoking at the reached resolution is legal too.
				o.Optimize(nil, r-1)
			}
			o.Optimize(nil, r)
			factor := math.Pow(cfg.AlphaFor(r), float64(q.NumTables()))
			approx := pareto.Vectors(o.Results(nil, r))
			if !pareto.Covers(approx, truth, factor) {
				t.Fatalf("trial %d r=%d: coverage violated (needs %g, allowed %g)",
					trial, r, pareto.ApproxFactor(approx, truth), factor)
			}
		}
	}
}
