package pareto_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
)

// costPlan is a node outside any arena (ID 0) with the given cost.
func costPlan(vals ...float64) *plan.Node {
	return &plan.Node{SampleRate: 1, Cost: cost.Vec(vals...)}
}

// stableFilter is Filter as it was before its sort became a keyed
// pdqsort: a stable merge sort of the pointers by (lexicographic cost,
// node ID), then the same sweep. It is kept as the reference the keyed
// sort must agree with, pointer for pointer and in order.
func stableFilter(plans []*plan.Node) []*plan.Node {
	slices.SortStableFunc(plans, func(p, q *plan.Node) int {
		if c := slices.Compare(p.Cost, q.Cost); c != 0 {
			return c
		}
		return cmp.Compare(p.ID(), q.ID())
	})
	kept := plans[:min(1, len(plans))]
next:
	for _, p := range plans[len(kept):] {
		for i := len(kept) - 1; i >= 0; i-- {
			if kept[i].Cost.Dominates(p.Cost) {
				continue next
			}
		}
		kept = append(kept, p)
	}
	return slices.Clip(kept)
}

// tiedPlans is n plans whose costs lie on a coarse grid, so that equal
// cost vectors are common. Most are arena nodes whose IDs run against
// their input order; every fifth is a node outside an arena (ID 0), and
// a few are the same node listed twice.
func tiedPlans(rng *rand.Rand, n int) []*plan.Node {
	arena := plan.NewArenaFrom(1)
	plans := make([]*plan.Node, n)
	for i := range plans {
		c := cost.Vec(float64(rng.Intn(8)), float64(rng.Intn(4)), float64(rng.Intn(6)))
		if rng.Intn(5) == 0 {
			plans[i] = costPlan(c...)
		} else {
			plans[i] = arena.NewNode(plan.Node{Cost: c})
		}
	}
	rng.Shuffle(n, func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	for i := 0; i < n/50; i++ {
		plans[rng.Intn(n)] = plans[rng.Intn(n)]
	}
	return plans
}

// TestFilterMatchesStableReference pins the keyed sort against the
// stable one it replaced: on seeded inputs of every size from 0 to 1000
// with equal-cost ties, ID-0 nodes and a node listed twice, and on the
// converged chain4/star4 root result sets, both return the same plans
// in the same order as a capacity-clipped prefix of their argument.
func TestFilterMatchesStableReference(t *testing.T) {
	check := func(name string, in []*plan.Node) {
		t.Helper()
		buf := slices.Clone(in)
		got := pareto.Filter(buf)
		want := stableFilter(slices.Clone(in))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: keyed Filter keeps %d plans %v, the stable reference %d plans %v",
				name, len(got), pareto.Vectors(got), len(want), pareto.Vectors(want))
		}
		if len(got) > 0 && (&got[0] != &buf[0] || cap(got) != len(got)) {
			t.Fatalf("%s: skyline is not a capacity-clipped prefix of its argument", name)
		}
	}
	rng := rand.New(rand.NewSource(39))
	for n := 0; n <= 1000; n++ {
		check("tied", tiedPlans(rng, n))
	}
	check("synthetic2048", syntheticResults(2048))
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		check(tp.String(), convergedResults(t, tp))
	}
}

// TestMergeMatchesFilter pins Merge against Filter of the union: every
// seeded input of TestFilterMatchesStableReference's sizes is cut at a
// random point, each part filtered, and Merge of the two skylines must
// return Filter of their concatenation pointer for pointer and in
// order, in a slice of its own, without writing either argument. A
// run listed twice, and a run merged with an empty one, are covered
// too.
func TestMergeMatchesFilter(t *testing.T) {
	check := func(name string, a, b []*plan.Node) {
		t.Helper()
		a0, b0 := slices.Clone(a), slices.Clone(b)
		got := pareto.Merge(a, b)
		want := pareto.Filter(append(slices.Clone(a), b...))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Merge keeps %d plans %v, Filter of the union %d plans %v",
				name, len(got), pareto.Vectors(got), len(want), pareto.Vectors(want))
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			t.Fatalf("%s: Merge wrote an argument", name)
		}
		if len(got) > 0 && (len(a) > 0 && &got[0] == &a[0] || len(b) > 0 && &got[0] == &b[0]) {
			t.Fatalf("%s: Merge returned an argument's array", name)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 1000; n++ {
		in := tiedPlans(rng, n)
		cut := rng.Intn(n + 1)
		a := pareto.Filter(slices.Clone(in[:cut]))
		b := pareto.Filter(slices.Clone(in[cut:]))
		check("tied", a, b)
		check("tied/swapped", b, a)
		check("tied/twice", a, a)
		check("tied/empty", a, nil)
	}
	syn := syntheticResults(2048)
	check("synthetic2048", pareto.Filter(slices.Clone(syn[:1024])), pareto.Filter(slices.Clone(syn[1024:])))
}
