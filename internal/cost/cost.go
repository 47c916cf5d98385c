// Package cost defines multi-objective plan cost vectors and the
// dominance partial order over them.
//
// A query plan is associated with a Vector of l non-negative cost values,
// one per metric (execution time, reserved cores, result precision, fees,
// energy, ...). A plan p1 dominates p2 when its cost is lower or equal in
// every component; it strictly dominates when it is additionally strictly
// lower in at least one component. The Principle of Near-Optimality (PONO)
// holds for every metric whose cost aggregation function is built from
// sums, maxima, minima and multiplication by non-negative constants.
package cost

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a multi-objective cost vector. All components are
// non-negative; the component order is fixed by the metric Space the
// vector was created under. Vectors are value types: operations return
// new vectors and never mutate their receiver.
type Vector []float64

// NewVector returns a zero vector with l components.
func NewVector(l int) Vector {
	if l <= 0 {
		panic(fmt.Sprintf("cost: NewVector(%d): dimension must be positive", l))
	}
	return make(Vector, l)
}

// Vec builds a vector from the given component values.
func Vec(values ...float64) Vector {
	v := make(Vector, len(values))
	copy(v, values)
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the number of cost metrics (l in the paper).
func (v Vector) Dim() int { return len(v) }

// Dominates reports whether v ⪯ w: v is lower than or equal to w in every
// component. Matching the paper, this is the non-strict dominance used for
// bound checks ("c(p) ⪯ b") and approximate coverage ("c(p*) ⪯ α·c(p)").
// It panics if the dimensions differ.
func (v Vector) Dominates(w Vector) bool {
	mustMatch(v, w)
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// StrictlyDominates reports whether v ≺ w: v ⪯ w and v is strictly lower
// in at least one component.
func (v Vector) StrictlyDominates(w Vector) bool {
	mustMatch(v, w)
	strict := false
	for i := range v {
		if v[i] > w[i] {
			return false
		}
		if v[i] < w[i] {
			strict = true
		}
	}
	return strict
}

// Equal reports component-wise equality.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Scale returns α·v. Scaling a cost vector by α > 1 makes the plan appear
// more expensive; the pruning procedure uses this to decide whether an
// existing plan approximately covers a new one.
func (v Vector) Scale(alpha float64) Vector {
	return v.ScaleInto(make(Vector, len(v)), alpha)
}

// ScaleInto writes α·v into dst and returns dst. It is the
// non-allocating variant of Scale for hot paths that own a scratch
// vector; dst may alias v. It panics if the dimensions differ.
func (v Vector) ScaleInto(dst Vector, alpha float64) Vector {
	mustMatch(v, dst)
	for i := range v {
		dst[i] = v[i] * alpha
	}
	return dst
}

// DominatesScaled reports whether v ⪯ α·w without materializing the
// scaled vector: the fused form of w.Scale(alpha) followed by
// v.Dominates. It panics if the dimensions differ.
func (v Vector) DominatesScaled(w Vector, alpha float64) bool {
	mustMatch(v, w)
	for i := range v {
		if v[i] > w[i]*alpha {
			return false
		}
	}
	return true
}

// Add returns the component-wise sum v + w.
func (v Vector) Add(w Vector) Vector {
	mustMatch(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Max returns the component-wise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	mustMatch(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = math.Max(v[i], w[i])
	}
	return out
}

// Min returns the component-wise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	return v.MinInto(make(Vector, len(v)), w)
}

// MinInto writes the component-wise minimum of v and w into dst and
// returns dst. It is the non-allocating variant of Min; dst may alias
// either operand. It panics if the dimensions differ.
func (v Vector) MinInto(dst, w Vector) Vector {
	mustMatch(v, w)
	mustMatch(v, dst)
	for i := range v {
		dst[i] = math.Min(v[i], w[i])
	}
	return dst
}

// WithinBounds reports whether v respects the cost bounds b, i.e. v ⪯ b.
// A nil bound vector means "no bounds" and every vector respects it.
func (v Vector) WithinBounds(b Vector) bool {
	if b == nil {
		return true
	}
	return v.Dominates(b)
}

// IsFinite reports whether every component is a finite, non-negative
// number. Cost models must only ever produce finite vectors; this is an
// invariant checked by tests and debug assertions.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return true
}

// Norm1 returns the sum of the components. Used only for reporting and for
// deterministic tie-breaking in tests, never by the optimizer itself.
func (v Vector) Norm1() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// String renders the vector as "(1.0, 2.5, 0.1)".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Unbounded returns a bound vector of dimension l with every component set
// to +Inf, representing "no user bounds" (the paper's default b = ∞).
func Unbounded(l int) Vector {
	v := make(Vector, l)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

func mustMatch(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cost: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
