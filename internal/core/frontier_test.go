package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
)

// quadraticFrontierFilter is the all-pairs filter the sort-then-sweep
// replaced, kept as its reference: plan i is dropped when some other
// plan j covers its order, produces no more rows, and strictly dominates
// its cost or equals it with j < i. The verdicts are written into keep,
// grown as needed.
func quadraticFrontierFilter(cfg Config, all []*plan.Node, keep []bool) []bool {
	keep = keep[:0]
	for range all {
		keep = append(keep, true)
	}
	if cfg.DisableVisibleFrontierFilter {
		return keep
	}
	for i, p := range all {
		for j, q := range all {
			if i == j {
				continue
			}
			if !cfg.DisableOrderAwarePruning && !q.Order.Covers(p.Order) {
				continue
			}
			if q.Rows > p.Rows {
				continue
			}
			if q.Cost.StrictlyDominates(p.Cost) || (j < i && q.Cost.Equal(p.Cost)) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// randomPlans draws n plans whose costs, rows and orders come from small
// pools, so that equal costs, equal rows, dominance chains and every
// order relation occur often; about one plan in eight repeats an earlier
// plan's cost exactly. coarse selects a pool of four values per cost
// component instead of a continuous range.
func randomPlans(rng *rand.Rand, n, dim int, coarse bool) []*plan.Node {
	orders := []plan.Order{plan.OrderNone, plan.OrderOn(0), plan.OrderOn(1)}
	all := make([]*plan.Node, n)
	for i := range all {
		c := cost.NewVector(dim)
		switch {
		case i > 0 && rng.Intn(8) == 0:
			copy(c, all[rng.Intn(i)].Cost)
		case coarse:
			for d := range c {
				c[d] = float64(rng.Intn(4))
			}
		default:
			for d := range c {
				c[d] = rng.Float64() * 100
			}
		}
		all[i] = &plan.Node{
			Cost:  c,
			Rows:  float64(10 * (1 + rng.Intn(3))),
			Order: orders[rng.Intn(len(orders))],
		}
	}
	return all
}

// filterConfigs are the configurations whose redundancy test differs.
func filterConfigs() map[string]Config {
	orderBlind := defaultConfig()
	orderBlind.DisableOrderAwarePruning = true
	return map[string]Config{"default": defaultConfig(), "order-blind": orderBlind}
}

// TestFrontierFilterMatchesQuadratic checks the sort-then-sweep filter
// against the all-pairs reference: the same verdict for every plan, in
// the original order, on seeded random plan sets of 0 to 800 plans —
// across the insertion-sort cutoff — and on the real inputs of both
// callers (the visible sets and the pairs' alternative batches of
// converged chain4 and star4).
func TestFrontierFilterMatchesQuadratic(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 5, 8, 12, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 50, 100, 275, 500, 800}
	for name, cfg := range filterConfigs() {
		o := MustNewOptimizer(smallQuery(t), cfg)
		rng := rand.New(rand.NewSource(37))
		for _, n := range sizes {
			for _, coarse := range []bool{true, false} {
				for rep := 0; rep < 3; rep++ {
					all := randomPlans(rng, n, cfg.Model.Space().Dim(), coarse)
					want := quadraticFrontierFilter(cfg, all, nil)
					o.altsKeep = o.frontierFilter(all, o.altsKeep)
					if !slices.Equal(o.altsKeep, want) {
						t.Fatalf("%s n=%d coarse=%v rep %d: sweep kept %v, reference %v",
							name, n, coarse, rep, o.altsKeep, want)
					}
				}
			}
		}
	}

	for name, cfg := range filterConfigs() {
		for qname, q := range map[string]*query.Query{"chain4": chain4(t), "star4": star4(t)} {
			visible, batches := filterInputs(t, q, cfg)
			if len(visible) == 0 || len(batches) == 0 {
				t.Fatalf("%s/%s: no inputs", name, qname)
			}
			o := MustNewOptimizer(q, cfg)
			for i, all := range append(visible, batches...) {
				want := quadraticFrontierFilter(cfg, all, nil)
				o.altsKeep = o.frontierFilter(all, o.altsKeep)
				if !slices.Equal(o.altsKeep, want) {
					t.Fatalf("%s/%s input %d (%d plans): sweep kept %v, reference %v",
						name, qname, i, len(all), o.altsKeep, want)
				}
			}
		}
	}
}

// filterInputs converges q under cfg and returns what the frontier
// filter's two callers see at the target resolution: every table set's
// visible result plans, and the join-alternative batch of every pair of
// the split operands' visible plans (copied out of the scratch they are
// enumerated into).
func filterInputs(t testing.TB, q *query.Query, cfg Config) (visible, batches [][]*plan.Node) {
	o := MustNewOptimizer(q, cfg)
	rM := cfg.MaxResolution()
	for r := 0; r <= rM; r++ {
		o.Optimize(nil, r)
	}
	var nodes []plan.Node
	var floats []float64
	for _, sets := range o.subsetsBySize {
		for _, sub := range sets {
			visible = append(visible, o.ResultsFor(sub, nil, rM))
			sub.AllSplits(func(q1, q2 tableset.Set) bool {
				if _, edges := q.CrossSelectivity(q1, q2); edges == 0 || !q.Connected(q1) || !q.Connected(q2) {
					return true
				}
				s := cfg.Model.NewSplit(q, q1, q2)
				for _, l := range o.ResultsFor(q1, nil, rM) {
					for _, r := range o.ResultsFor(q2, nil, rM) {
						nodes, floats = cfg.Model.JoinAlternativesInto(nodes, floats, &s, l, r)
						batch := make([]*plan.Node, len(nodes))
						for i := range nodes {
							n := nodes[i]
							n.Cost = n.Cost.Clone()
							batch[i] = &n
						}
						batches = append(batches, batch)
					}
				}
				return true
			})
		}
	}
	return visible, batches
}
