// Package pareto provides utilities over sets of multi-objective cost
// vectors and plans: exact Pareto filtering, α-approximate coverage
// checks (the correctness criterion of the paper's Theorems 1 and 2),
// and frontier quality metrics used to reproduce the conceptual
// anytime-quality figure (Figure 2a).
package pareto

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
)

// Filter returns the skyline of the given plans: the plans no other input
// plan dominates by cost, in ascending lexicographic cost order. Of plans
// with equal cost vectors it keeps the one with the smallest node ID
// (the first occurrence among equal IDs). Every input plan is dominated
// by an output plan. Like slices.Compact it works in place: it reorders
// plans and returns the skyline as a prefix of it, capacity clipped.
//
// It is a sort-then-sweep: after sorting in that order a plan can only
// be dominated by one sorted before it, and — dominance being
// transitive — only by one of those the sweep kept, so each plan is
// compared against the kept prefix alone, nearest first: a dominator is
// usually a close neighbour in the order. The sort is an unstable
// pdqsort of pointer-free keys — a plan's first cost component and its
// input index — tie-broken by the full cost, the node ID and the index,
// which orders exactly as a stable sort by (cost, ID) would; the plans
// are then permuted into that order once.
func Filter(plans []*plan.Node) []*plan.Node {
	keys := make([]sortKey, len(plans))
	for i, p := range plans {
		keys[i] = sortKey{p.Cost[0], int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.c0 < b.c0:
			return -1
		case a.c0 > b.c0:
			return 1
		}
		return compareTied(plans, a, b)
	})
	permute(plans, keys)
	kept := plans[:min(1, len(plans))]
next:
	for _, p := range plans[len(kept):] {
		for i := len(kept) - 1; i >= 0; i-- {
			if dominates(kept[i].Cost, p.Cost) {
				continue next
			}
		}
		kept = append(kept, p)
	}
	return slices.Clip(kept)
}

// Merge returns Filter(a ∪ b) — the skyline of a's plans followed by
// b's — where a and b are each an output of Filter, in a fresh slice;
// neither argument is written. It walks both runs in Filter's order
// (cost, then node ID, then input position, so a's plan first of an
// equal pair) and sweeps as Filter does, except that a plan is tested
// only against the kept plans of the other run, nearest first: a run is
// an output of Filter, so no plan of it dominates another, and a plan
// of the other run that was dropped was dropped by one of the plan's
// own run, so it cannot dominate the plan either. An empty run leaves
// the other as it is, copied without a sweep.
func Merge(a, b []*plan.Node) []*plan.Node {
	out := make([]*plan.Node, 0, len(a)+len(b))
	if len(a) == 0 || len(b) == 0 {
		return append(append(out, a...), b...)
	}
	// The indexes of each run's kept plans: a's below len(a), b's above.
	var stack [256]int32
	kept := stack[:]
	if len(a)+len(b) > len(stack) {
		kept = make([]int32, len(a)+len(b))
	}
	keptA, keptB := kept[:0:len(a)], kept[len(a):len(a)]
	for i, j := 0, 0; i < len(a) || j < len(b); {
		if j == len(b) || i < len(a) && precedes(a[i], b[j]) {
			if !dominatedByKept(b, keptB, a[i].Cost) {
				keptA = append(keptA, int32(i))
				out = append(out, a[i])
			}
			i++
		} else {
			if !dominatedByKept(a, keptA, b[j].Cost) {
				keptB = append(keptB, int32(j))
				out = append(out, b[j])
			}
			j++
		}
	}
	return slices.Clip(out)
}

// precedes reports whether p sorts before q in Filter's order when p
// stands before q in the input: by cost, then node ID.
func precedes(p, q *plan.Node) bool {
	switch {
	case p.Cost[0] < q.Cost[0]:
		return true
	case p.Cost[0] > q.Cost[0]:
		return false
	}
	if c := slices.Compare(p.Cost[1:], q.Cost[1:]); c != 0 {
		return c < 0
	}
	return p.ID() <= q.ID()
}

// dominatedByKept reports whether a plan of run at one of the indexes
// kept, tried last first, dominates c.
func dominatedByKept(run []*plan.Node, kept []int32, c cost.Vector) bool {
	for k := len(kept) - 1; k >= 0; k-- {
		if dominates(run[kept[k]].Cost, c) {
			return true
		}
	}
	return false
}

// dominates is q.Dominates(p), spelled out so that the sweep's test
// inlines.
func dominates(q, p cost.Vector) bool {
	p = p[:len(q)]
	for d, c := range q {
		if c > p[d] {
			return false
		}
	}
	return true
}

// sortKey is one plan of Filter's input: its first cost component,
// which settles most comparisons without a pointer chase, and its index.
type sortKey struct {
	c0 float64
	i  int32
}

// compareTied orders two keys of plans with equal first cost components
// by the rest of the cost vector, then node ID, then index.
func compareTied(plans []*plan.Node, a, b sortKey) int {
	p, q := plans[a.i], plans[b.i]
	if c := slices.Compare(p.Cost[1:], q.Cost[1:]); c != 0 {
		return c
	}
	if c := cmp.Compare(p.ID(), q.ID()); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// permute moves plans[keys[j].i] to plans[j] for every j, following
// each cycle of the permutation once; it overwrites keys.
func permute(plans []*plan.Node, keys []sortKey) {
	for start := range keys {
		if int(keys[start].i) == start {
			continue
		}
		moving := plans[start]
		j := start
		for {
			from := int(keys[j].i)
			keys[j].i = int32(j) // placed
			if from == start {
				plans[j] = moving
				break
			}
			plans[j] = plans[from]
			j = from
		}
	}
}

// FilterVectors returns the non-dominated vectors of vs in input order,
// the first occurrence among equal ones. The input is not modified.
func FilterVectors(vs []cost.Vector) []cost.Vector {
	var out []cost.Vector
	for _, v := range vs {
		dominated := false
		for _, w := range out {
			if w.Dominates(v) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := out[:0]
		for _, w := range out {
			if !v.Dominates(w) {
				kept = append(kept, w)
			}
		}
		out = append(kept, v)
	}
	return out
}

// Covers reports whether the approximate set covers every reference
// vector within factor alpha: for each r in reference there is an a in
// approx with a ⪯ alpha·r. With alpha = 1 this checks exact Pareto
// coverage. An empty reference is trivially covered; an empty approx
// covers only an empty reference.
func Covers(approx, reference []cost.Vector, alpha float64) bool {
	for _, r := range reference {
		scaled := r.Scale(alpha)
		found := false
		for _, a := range approx {
			if a.Dominates(scaled) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CoversBounded is Covers restricted to reference vectors relevant under
// bounds b at factor alpha: following the paper's definition of an
// α-approximate b-bounded Pareto plan set, only reference vectors r with
// alpha·r ⪯ b need to be covered.
func CoversBounded(approx, reference []cost.Vector, alpha float64, b cost.Vector) bool {
	for _, r := range reference {
		scaled := r.Scale(alpha)
		if !scaled.WithinBounds(b) {
			continue
		}
		found := false
		for _, a := range approx {
			if a.Dominates(scaled) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ApproxFactor returns the smallest factor alpha such that approx covers
// reference within alpha (the frontier's worst-case approximation error;
// 1 means exact coverage). Returns +Inf when some reference vector has a
// zero component that no approx vector matches with zero, or when approx
// is empty and reference is not.
func ApproxFactor(approx, reference []cost.Vector) float64 {
	worst := 1.0
	for _, r := range reference {
		best := math.Inf(1)
		for _, a := range approx {
			// Smallest alpha with a ⪯ alpha·r.
			need := 1.0
			feasible := true
			for d := range r {
				switch {
				case a[d] <= r[d]:
					// covered at factor 1 in this dimension
				case r[d] == 0:
					feasible = false
				default:
					if f := a[d] / r[d]; f > need {
						need = f
					}
				}
				if !feasible {
					break
				}
			}
			if feasible && need < best {
				best = need
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// Hypervolume2D computes the area dominated by the frontier within the
// box [0, ref0] × [0, ref1] for two-dimensional cost vectors (lower is
// better, so the dominated region lies above-right of each point, clipped
// to the reference box). Vectors outside the box contribute only their
// clipped part. Used as a scalar frontier-quality measure in reports.
func Hypervolume2D(frontier []cost.Vector, ref cost.Vector) float64 {
	if ref.Dim() != 2 {
		panic("pareto: Hypervolume2D needs 2-dimensional vectors")
	}
	// Keep points inside the box, Pareto-filter, sort by x ascending.
	var pts []cost.Vector
	for _, v := range frontier {
		if v.Dim() != 2 {
			panic("pareto: Hypervolume2D needs 2-dimensional vectors")
		}
		if v[0] < ref[0] && v[1] < ref[1] {
			pts = append(pts, v)
		}
	}
	pts = FilterVectors(pts)
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	total := 0.0
	prevY := ref[1]
	for _, p := range pts {
		// Pareto-filtered and x-sorted implies y strictly decreasing.
		total += (ref[0] - p[0]) * (prevY - p[1])
		prevY = p[1]
	}
	return total
}

// Vectors extracts the cost vectors of the given plans.
func Vectors(plans []*plan.Node) []cost.Vector {
	out := make([]cost.Vector, len(plans))
	for i, p := range plans {
		out[i] = p.Cost
	}
	return out
}
