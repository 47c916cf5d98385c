// Package baseline implements the two comparison algorithms of the
// paper's evaluation (Section 6) plus an exhaustive ground-truth
// optimizer used by the test suite:
//
//   - OneShot is the non-iterative approximation scheme of Trummer and
//     Koch (SIGMOD 2014): a single dynamic-programming pass that prunes
//     with the target precision factor and produces the final result
//     plan set directly, with no intermediate results.
//   - Memoryless produces the same sequence of result plan sets as IAMA
//     (one per resolution level) but starts from scratch on every
//     invocation, regenerating all plans.
//   - Exhaustive computes the exact Pareto plan set (a Ganguly-style
//     full multi-objective DP, precision factor 1). Its run time can be
//     excessive for large queries; tests restrict it to small ones.
//
// All three share one DP routine so that timing differences measure the
// algorithmic strategy, not implementation divergence.
package baseline

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
)

// Result is the output of one DP pass: the plan sets per table subset.
type Result struct {
	// Plans maps each connected table subset to its (approximate)
	// Pareto plan set.
	Plans map[tableset.Set][]*plan.Node
	// PlansGenerated counts constructed plan nodes.
	PlansGenerated int
}

// Final returns the plan set for the full query.
func (r *Result) Final(q *query.Query) []*plan.Node {
	return r.Plans[q.Tables()]
}

// Optimize runs one approximate multi-objective DP pass over query q
// with precision factor alpha (≥ 1) and cost bounds b (nil for none).
// Plans whose cost exceeds the bounds are discarded, matching the prior
// schemes' behaviour of keeping plan sets minimal; plans approximated by
// an existing plan (cost within factor alpha, interesting order covered)
// are discarded as well, and newly inserted plans evict the plans they
// dominate.
func Optimize(q *query.Query, model *costmodel.Model, alpha float64, b cost.Vector) (*Result, error) {
	if q == nil || model == nil {
		return nil, fmt.Errorf("baseline: nil query or model")
	}
	if alpha < 1 {
		return nil, fmt.Errorf("baseline: alpha %g < 1", alpha)
	}
	if b == nil {
		b = cost.Unbounded(model.Space().Dim())
	}
	if b.Dim() != model.Space().Dim() {
		return nil, fmt.Errorf("baseline: bounds dim %d, space dim %d", b.Dim(), model.Space().Dim())
	}
	res := &Result{Plans: map[tableset.Set][]*plan.Node{}}

	// One arena and alternatives scratch per DP pass: the baselines
	// share the optimizer's block allocation so timing comparisons
	// measure the algorithmic strategy, not allocator traffic. The
	// arena's memory lives as long as the Result references its nodes.
	arena := plan.NewArena()
	var alts []*plan.Node

	// Scan plans.
	q.Tables().ForEach(func(id int) {
		sub := tableset.Singleton(id)
		alts = model.AppendScanPlans(alts[:0], q, id, arena)
		for _, p := range alts {
			res.PlansGenerated++
			res.insert(sub, p, alpha, b)
		}
	})

	// Joins, ascending subset size, connected subsets and splits only.
	n := q.NumTables()
	for k := 2; k <= n; k++ {
		q.Tables().SubsetsOfSize(k, func(sub tableset.Set) bool {
			if !q.Connected(sub) {
				return true
			}
			sub.AllSplits(func(q1, q2 tableset.Set) bool {
				if !q.Connected(q1) || !q.Connected(q2) {
					return true
				}
				if _, edges := q.CrossSelectivity(q1, q2); edges == 0 {
					return true
				}
				s := model.NewSplit(q, q1, q2)
				for _, l := range res.Plans[q1] {
					for _, r := range res.Plans[q2] {
						alts = model.AppendSplitAlternatives(alts[:0], &s, l, r, arena)
						for _, p := range alts {
							res.PlansGenerated++
							res.insert(sub, p, alpha, b)
						}
					}
				}
				return true
			})
			return true
		})
	}
	return res, nil
}

// MustOptimize is Optimize but panics on error.
func MustOptimize(q *query.Query, model *costmodel.Model, alpha float64, b cost.Vector) *Result {
	r, err := Optimize(q, model, alpha, b)
	if err != nil {
		panic(err)
	}
	return r
}

// insert applies the prior schemes' pruning: discard p when out of
// bounds or approximated; otherwise insert and evict dominated plans.
func (r *Result) insert(sub tableset.Set, p *plan.Node, alpha float64, b cost.Vector) {
	if !p.Cost.WithinBounds(b) {
		return
	}
	set := r.Plans[sub]
	for _, q := range set {
		if q.Order.Covers(p.Order) && q.Cost.DominatesScaled(p.Cost, alpha) {
			return
		}
	}
	kept := set[:0]
	for _, q := range set {
		// Evict q only when p fully stands in for it: p's cost
		// dominates and p provides at least q's order.
		if p.Order.Covers(q.Order) && p.Cost.Dominates(q.Cost) {
			continue
		}
		kept = append(kept, q)
	}
	r.Plans[sub] = append(kept, p)
}

// Exhaustive computes the exact (factor-1) Pareto plan sets for q within
// bounds b. Intended for ground truth on small queries only.
func Exhaustive(q *query.Query, model *costmodel.Model, b cost.Vector) *Result {
	return MustOptimize(q, model, 1, b)
}

// OneShot runs the non-anytime baseline: a single DP pass at the target
// precision (the finest resolution's factor), producing the final result
// set directly.
func OneShot(q *query.Query, model *costmodel.Model, targetPrecision float64, b cost.Vector) (*Result, error) {
	return optimizeChecked(q, model, targetPrecision, b)
}

func optimizeChecked(q *query.Query, model *costmodel.Model, alpha float64, b cost.Vector) (*Result, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("baseline: precision factor %g must exceed 1", alpha)
	}
	return Optimize(q, model, alpha, b)
}

// Memoryless re-optimizes from scratch for every invocation of an
// anytime series. Each call to Invoke runs a full DP pass at the
// requested precision and bounds; nothing is carried over, which is
// exactly the redundancy IAMA eliminates.
type Memoryless struct {
	q     *query.Query
	model *costmodel.Model
	// Invocations counts Invoke calls.
	Invocations int
	// PlansGenerated accumulates plan constructions across calls.
	PlansGenerated int
}

// NewMemoryless creates a memoryless anytime optimizer for q.
func NewMemoryless(q *query.Query, model *costmodel.Model) (*Memoryless, error) {
	if q == nil || model == nil {
		return nil, fmt.Errorf("baseline: nil query or model")
	}
	return &Memoryless{q: q, model: model}, nil
}

// Invoke runs one from-scratch pass at precision alpha within bounds b
// and returns the resulting final plan set.
func (m *Memoryless) Invoke(alpha float64, b cost.Vector) ([]*plan.Node, error) {
	res, err := optimizeChecked(m.q, m.model, alpha, b)
	if err != nil {
		return nil, err
	}
	m.Invocations++
	m.PlansGenerated += res.PlansGenerated
	return res.Final(m.q), nil
}
