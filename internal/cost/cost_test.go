package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecAndClone(t *testing.T) {
	v := Vec(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d", v.Dim())
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone is not independent")
	}
}

func TestNewVectorPanics(t *testing.T) {
	for _, l := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewVector(%d) did not panic", l)
				}
			}()
			NewVector(l)
		}()
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		v, w           Vector
		dom, strictDom bool
	}{
		{Vec(1, 2), Vec(1, 2), true, false},
		{Vec(1, 2), Vec(2, 3), true, true},
		{Vec(1, 2), Vec(1, 3), true, true},
		{Vec(2, 1), Vec(1, 2), false, false},
		{Vec(0, 0), Vec(0, 0), true, false},
		{Vec(1, 5), Vec(2, 4), false, false}, // incomparable
	}
	for _, c := range cases {
		if got := c.v.Dominates(c.w); got != c.dom {
			t.Errorf("%v Dominates %v = %v, want %v", c.v, c.w, got, c.dom)
		}
		if got := c.v.StrictlyDominates(c.w); got != c.strictDom {
			t.Errorf("%v StrictlyDominates %v = %v, want %v", c.v, c.w, got, c.strictDom)
		}
	}
}

func TestDominatesDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Dominates did not panic")
		}
	}()
	Vec(1).Dominates(Vec(1, 2))
}

func TestScaleAddMaxMin(t *testing.T) {
	v, w := Vec(1, 4), Vec(3, 2)
	if got := v.Scale(2); !got.Equal(Vec(2, 8)) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Add(w); !got.Equal(Vec(4, 6)) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Max(w); !got.Equal(Vec(3, 4)) {
		t.Errorf("Max = %v", got)
	}
	if got := v.Min(w); !got.Equal(Vec(1, 2)) {
		t.Errorf("Min = %v", got)
	}
}

func TestWithinBounds(t *testing.T) {
	v := Vec(5, 5)
	if !v.WithinBounds(nil) {
		t.Error("nil bounds must admit everything")
	}
	if !v.WithinBounds(Unbounded(2)) {
		t.Error("infinite bounds must admit everything")
	}
	if !v.WithinBounds(Vec(5, 5)) {
		t.Error("bounds are inclusive")
	}
	if v.WithinBounds(Vec(5, 4.999)) {
		t.Error("bound exceeded in one component must fail")
	}
}

func TestIsFinite(t *testing.T) {
	if !Vec(0, 1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	for _, bad := range []Vector{
		Vec(math.NaN()),
		Vec(math.Inf(1)),
		Vec(-0.001),
	} {
		if bad.IsFinite() {
			t.Errorf("%v reported finite", bad)
		}
	}
}

func TestStringAndNorm(t *testing.T) {
	v := Vec(1, 2.5)
	if v.String() != "(1, 2.5)" {
		t.Errorf("String = %q", v.String())
	}
	if v.Norm1() != 3.5 {
		t.Errorf("Norm1 = %v", v.Norm1())
	}
}

// Property: dominance is reflexive and transitive; strict dominance is
// irreflexive; v ⪯ w and w ⪯ v imply equality (antisymmetry).
func TestQuickDominancePartialOrder(t *testing.T) {
	gen := func(r *rand.Rand) Vector {
		v := make(Vector, 3)
		for i := range v {
			v[i] = float64(r.Intn(5)) // small domain to hit equalities
		}
		return v
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !a.Dominates(a) {
			t.Fatalf("reflexivity violated: %v", a)
		}
		if a.StrictlyDominates(a) {
			t.Fatalf("irreflexivity violated: %v", a)
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
		if a.Dominates(b) && b.Dominates(a) && !a.Equal(b) {
			t.Fatalf("antisymmetry violated: %v %v", a, b)
		}
		if a.StrictlyDominates(b) && !a.Dominates(b) {
			t.Fatalf("strict must imply non-strict: %v %v", a, b)
		}
	}
}

// Property: scaling by α ≥ 1 preserves dominance direction, and any vector
// dominates its own scaled version.
func TestQuickScalePreservesDominance(t *testing.T) {
	f := func(a, b, c uint8, alphaRaw uint8) bool {
		v := Vec(float64(a), float64(b), float64(c))
		alpha := 1 + float64(alphaRaw)/64.0
		scaled := v.Scale(alpha)
		return v.Dominates(scaled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add and Max are monotone aggregators — the result always
// dominates neither operand from below (result >= each input component
// for Max; result >= each input for Add given non-negative inputs).
func TestQuickAggregationMonotone(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		v := Vec(float64(a), float64(b))
		w := Vec(float64(c), float64(d))
		sum := v.Add(w)
		mx := v.Max(w)
		return v.Dominates(sum) && w.Dominates(sum) && v.Dominates(mx) && w.Dominates(mx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetricString(t *testing.T) {
	if Time.String() != "time" || Cores.String() != "cores" ||
		PrecisionLoss.String() != "precision-loss" ||
		Fees.String() != "fees" || Energy.String() != "energy" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() != "metric(99)" {
		t.Error("out-of-range metric name wrong")
	}
}

func TestSpace(t *testing.T) {
	s := EvaluationSpace()
	if s.Dim() != 3 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	if s.Index(Time) != 0 || s.Index(Cores) != 1 || s.Index(PrecisionLoss) != 2 {
		t.Error("indices wrong")
	}
	if !s.Has(Time) || s.Has(Fees) {
		t.Error("Has wrong")
	}
	v := Vec(1, 2, 3)
	if s.Component(v, Cores) != 2 {
		t.Error("Component wrong")
	}
	if s.Zero().Dim() != 3 || !s.Zero().Equal(Vec(0, 0, 0)) {
		t.Error("Zero wrong")
	}
	if !math.IsInf(s.Unbounded()[0], 1) {
		t.Error("Unbounded wrong")
	}
	if s.String() != "[time cores precision-loss]" {
		t.Errorf("String = %q", s.String())
	}
	ms := s.Metrics()
	ms[0] = Fees
	if s.Index(Time) != 0 {
		t.Error("Metrics() must return a copy")
	}
}

func TestCloudSpace(t *testing.T) {
	s := CloudSpace()
	if s.Dim() != 2 || !s.Has(Time) || !s.Has(Fees) {
		t.Error("CloudSpace wrong")
	}
}

func TestSpacePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":      func() { NewSpace() },
		"duplicate":  func() { NewSpace(Time, Time) },
		"unknown":    func() { NewSpace(Metric(42)) },
		"badIndex":   func() { EvaluationSpace().Index(Fees) },
		"badCompont": func() { EvaluationSpace().Component(Vec(1, 2, 3), Energy) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkDominates(b *testing.B) {
	v := Vec(1, 2, 3)
	w := Vec(1.5, 2.5, 3.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !v.Dominates(w) {
			b.Fatal("bad")
		}
	}
}

func BenchmarkScale(b *testing.B) {
	v := Vec(1, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Scale(1.01)
	}
}
