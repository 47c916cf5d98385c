package session

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
)

// sortedCosts returns the cost vectors of plans in lexicographic order,
// for multiset comparison.
func sortedCosts(plans []*plan.Node) []cost.Vector {
	vs := pareto.Vectors(plans)
	slices.SortFunc(vs, func(a, b cost.Vector) int { return slices.Compare(a, b) })
	return vs
}

// recomputed checks that the frontier s's last Step published is,
// pointer for pointer and in order, the skyline of the full result set
// Res^Q[0..b, 0..r] — what publication computed before it merged the
// newly visible plans into the last skyline (DESIGN.md D20).
func recomputed(t *testing.T, s *Session, what string) {
	t.Helper()
	want := pareto.Filter(slices.Clone(s.opt.Results(s.Bounds(), s.Resolution())))
	if got := s.Frontier(); !slices.Equal(got, want) {
		t.Fatalf("%s r=%d b=%v: published %d plans %v, the full recompute %d plans %v",
			what, s.Resolution(), s.Bounds(), len(got), pareto.Vectors(got), len(want), pareto.Vectors(want))
	}
}

// TestPublishedFrontierProperties is the differential check of skyline
// publication (DESIGN.md D20) over seeded random 3–4-table queries and a
// refine → tighten → relax → unbounded series, each regime stepped once
// past its target (r stays at r_M). After every Step the published
// frontier (a) is the skyline of the full Res^Q[0..b, 0..r], the very
// plans in the very order a recompute publishes; (b) is mutually
// non-dominated and in ascending lexicographic cost order; (c) covers
// the unfiltered Res^Q[0..b, 0..r] at factor 1; (d) on 3-table queries
// covers the exhaustive Pareto set within the invocation series'
// guarantee — α_r^k inside the first regime, Γ^k once bounds have
// changed; and (e) a session restored from the first regime's snapshot
// publishes, at every step, what a recompute would, and at the target
// the cold session's cost multiset.
func TestPublishedFrontierProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := core.Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 4,
		TargetPrecision:  1.02,
		PrecisionStep:    0.2,
	}
	for trial := 0; trial < 12; trial++ {
		cat := catalog.Random(rng, 4, 100, 1e5)
		tp := []query.Topology{query.Chain, query.Star, query.Cycle}[rng.Intn(3)]
		q, err := query.Synthetic(cat, 3+rng.Intn(2), tp, rng)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(q.NumTables())
		var truth []cost.Vector // the oracle, where it is affordable
		if q.NumTables() == 3 {
			truth = pareto.Vectors(baseline.Exhaustive(q, cfg.Model, nil).Final(q))
		}
		s := MustNew(q, cfg, nil)

		regime := 0
		step := func() []*plan.Node {
			t.Helper()
			pub := s.Step()
			b, r := s.Bounds(), s.Resolution()
			if got := s.Frontier(); len(got) != len(pub) || (len(pub) > 0 && &got[0] != &pub[0]) {
				t.Fatalf("trial %d: Frontier() is not the slice Step published", trial)
			}
			recomputed(t, s, fmt.Sprintf("trial %d regime %d", trial, regime))
			for i, p := range pub {
				if i > 0 && slices.Compare(pub[i-1].Cost, p.Cost) >= 0 {
					t.Fatalf("trial %d r=%d: published costs out of order at %d: %v, %v", trial, r, i, pub[i-1].Cost, p.Cost)
				}
				for j, o := range pub {
					if i != j && o.Cost.Dominates(p.Cost) {
						t.Fatalf("trial %d r=%d: published plan %v is dominated by %v", trial, r, p.Cost, o.Cost)
					}
				}
			}
			full := s.opt.Results(b, r)
			vs := pareto.Vectors(pub)
			if !pareto.Covers(vs, pareto.Vectors(full), 1) {
				t.Fatalf("trial %d r=%d b=%v: %d published plans do not cover the %d result plans", trial, r, b, len(pub), len(full))
			}
			if truth != nil {
				alpha := cfg.AlphaFor(r)
				if regime > 0 {
					alpha = cfg.CrossRegimeAlpha()
				}
				if !pareto.CoversBounded(vs, truth, math.Pow(alpha, k), b) {
					t.Fatalf("trial %d regime %d r=%d b=%v: published frontier misses the exhaustive set (needs %g, allowed %g^%g)",
						trial, regime, r, b, pareto.ApproxFactor(vs, truth), alpha, k)
				}
			}
			return pub
		}
		converge := func() []*plan.Node {
			t.Helper()
			var pub []*plan.Node
			for i := 0; i <= cfg.ResolutionLevels; i++ { // one step past the target: a covered invocation
				pub = step()
			}
			return pub
		}
		setBounds := func(b cost.Vector) {
			t.Helper()
			if err := s.SetBounds(b); err != nil {
				t.Fatal(err)
			}
			if s.Frontier() != nil {
				t.Fatalf("trial %d: a frontier is published between a bounds change and its first step", trial)
			}
			regime++
		}

		cold := converge()
		if len(cold) == 0 {
			t.Fatalf("trial %d: empty unbounded frontier", trial)
		}
		opt, err := core.NewOptimizerFromSnapshot(q, cfg, s.opt.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		warm, err := NewWithOptimizer(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= cfg.ResolutionLevels; i++ { // and one step past the target
			warm.Step()
			recomputed(t, warm, fmt.Sprintf("trial %d restored", trial))
		}
		if got, want := sortedCosts(warm.Frontier()), sortedCosts(cold); !slices.EqualFunc(got, want, cost.Vector.Equal) {
			t.Fatalf("trial %d: restored session published %d plans %v, the cold one %d plans %v", trial, len(got), got, len(want), want)
		}

		tight := cold[len(cold)/2].Cost.Scale(1.5)
		setBounds(tight)
		converge()
		setBounds(tight.Scale(4))
		converge()
		setBounds(nil)
		if len(converge()) == 0 {
			t.Fatalf("trial %d: empty frontier after relaxing to unbounded", trial)
		}
	}
}

// TestFrontierRunsNoRangeQuery pins that reading the published frontier
// never reaches the optimizer: Frontier() hands out the very slice Step
// published (a range query would have allocated a fresh one) and
// allocates nothing.
func TestFrontierRunsNoRangeQuery(t *testing.T) {
	s := MustNew(testQuery(t), testConfig(), nil)
	if s.Frontier() != nil {
		t.Fatal("a frontier is published before the first step")
	}
	for !s.AtMaxResolution() {
		pub := s.Step()
		if len(pub) == 0 {
			t.Fatal("empty unbounded frontier")
		}
		if got := s.Frontier(); len(got) != len(pub) || &got[0] != &pub[0] {
			t.Fatal("Frontier() is not the slice Step published")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Frontier() }); allocs != 0 {
		t.Errorf("Frontier() allocates %v times, want 0", allocs)
	}
}
