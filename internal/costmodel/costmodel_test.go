package costmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
	"repro/internal/workload"
)

func testQuery(t *testing.T) *query.Query {
	t.Helper()
	cat := catalog.MustNew([]catalog.Table{
		{Name: "big", Rows: 100000, RowWidth: 100, HasIndex: true, SamplingRates: []float64{0.1, 0.5, 1}},
		{Name: "mid", Rows: 10000, RowWidth: 50, HasIndex: true, SamplingRates: []float64{1}},
		{Name: "small", Rows: 100, RowWidth: 20, SamplingRates: []float64{1}},
	})
	q, err := query.New(cat, []int{0, 1, 2}, []query.JoinEdge{
		{A: 0, B: 1, Selectivity: 1e-4},
		{A: 1, B: 2, Selectivity: 1e-2},
	}, query.WithFilter(0, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewValidation(t *testing.T) {
	sp := cost.EvaluationSpace()
	good := DefaultParams()
	if _, err := New(nil, good); err == nil {
		t.Error("nil space should fail")
	}
	bad := good
	bad.Degrees = nil
	if _, err := New(sp, bad); err == nil {
		t.Error("no degrees should fail")
	}
	bad = good
	bad.Degrees = []int{0}
	if _, err := New(sp, bad); err == nil {
		t.Error("degree 0 should fail")
	}
	bad = good
	bad.Degrees = []int{2, 2}
	if _, err := New(sp, bad); err == nil {
		t.Error("duplicate degree should fail")
	}
	bad = good
	bad.SeqIOCost = 0
	if _, err := New(sp, bad); err == nil {
		t.Error("zero SeqIOCost should fail")
	}
	if m, err := New(sp, good); err != nil || m.Space() != sp {
		t.Errorf("valid model failed: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(nil, DefaultParams())
}

func TestScanPlansEnumeration(t *testing.T) {
	q := testQuery(t)
	m := Default()

	// Table 0 (big): seq + index + 2 sub-unit sampling rates = 4.
	plans := m.ScanPlans(q, 0)
	if len(plans) != 4 {
		t.Fatalf("big: %d scan plans, want 4: %v", len(plans), plans)
	}
	byOp := map[plan.ScanOp]int{}
	for _, p := range plans {
		byOp[p.Scan]++
		if err := p.Validate(); err != nil {
			t.Errorf("invalid scan plan %v: %v", p, err)
		}
		if !p.Cost.IsFinite() {
			t.Errorf("non-finite cost for %v", p)
		}
	}
	if byOp[plan.SeqScan] != 1 || byOp[plan.IndexScan] != 1 || byOp[plan.SampleScan] != 2 {
		t.Errorf("operator mix = %v", byOp)
	}

	// Table 2 (small, no index, exact only): just the seq scan.
	plans = m.ScanPlans(q, 2)
	if len(plans) != 1 || plans[0].Scan != plan.SeqScan {
		t.Fatalf("small: %v", plans)
	}
}

func TestScanCostShape(t *testing.T) {
	q := testQuery(t)
	m := Default()
	sp := m.Space()
	var seq, idx, smp *plan.Node
	for _, p := range m.ScanPlans(q, 0) {
		switch {
		case p.Scan == plan.SeqScan:
			seq = p
		case p.Scan == plan.IndexScan:
			idx = p
		case p.Scan == plan.SampleScan && p.SampleRate == 0.1:
			smp = p
		}
	}
	// With a 1% filter the index scan must beat the sequential scan on
	// time, while reserving more cores.
	if sp.Component(idx.Cost, cost.Time) >= sp.Component(seq.Cost, cost.Time) {
		t.Errorf("index scan (%v) not faster than seq scan (%v) under 1%% filter",
			idx.Cost, seq.Cost)
	}
	if sp.Component(idx.Cost, cost.Cores) <= sp.Component(seq.Cost, cost.Cores) {
		t.Error("index scan should reserve more cores")
	}
	// The sample scan must be faster but lose precision.
	if sp.Component(smp.Cost, cost.Time) >= sp.Component(seq.Cost, cost.Time) {
		t.Errorf("sample scan (%v) not faster than seq scan (%v)", smp.Cost, seq.Cost)
	}
	if got := sp.Component(smp.Cost, cost.PrecisionLoss); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("precision loss = %g, want 0.9", got)
	}
	if sp.Component(seq.Cost, cost.PrecisionLoss) != 0 {
		t.Error("exact scan must have zero precision loss")
	}
	// Index scan provides an interesting order; seq scan does not.
	if idx.Order != plan.OrderOn(0) || seq.Order != plan.OrderNone {
		t.Errorf("orders: idx=%v seq=%v", idx.Order, seq.Order)
	}
}

func TestJoinAlternativesEnumeration(t *testing.T) {
	q := testQuery(t)
	m := Default()
	l := m.ScanPlans(q, 0)[0]
	r := m.ScanPlans(q, 1)[0]
	alts := m.JoinAlternatives(q, l, r)
	// 3 operators × 4 degrees.
	if len(alts) != 12 {
		t.Fatalf("%d join alternatives, want 12", len(alts))
	}
	seen := map[string]bool{}
	for _, p := range alts {
		if err := p.Validate(); err != nil {
			t.Errorf("invalid join plan %v: %v", p, err)
		}
		if seen[p.Signature()] {
			t.Errorf("duplicate alternative %v", p)
		}
		seen[p.Signature()] = true
		if p.Tables != tableset.Of(0, 1) {
			t.Errorf("wrong table set %v", p.Tables)
		}
	}
}

// TestJoinAlternativesIntoMatchesAppend checks the scratch form against
// the materialising one — same alternatives, same order, same costs,
// same sub-plans once the caller attached the pair — and its storage
// contract: reused backing arrays, cost windows that do not overlap and
// cannot grow into each other, nodes that carry no sub-plans, and Cost
// views that are set when the scratch is built and not rewritten by
// later pairs. It covers both cardinality modes and a split that no
// join edge crosses (tables 0 and 2), whose merge keys are OrderNone.
func TestJoinAlternativesIntoMatchesAppend(t *testing.T) {
	q := testQuery(t)
	propagate := DefaultParams()
	propagate.PropagateSampling = true
	for _, mode := range []struct {
		name string
		m    *Model
	}{
		{"logical", Default()},
		{"propagate", MustNew(cost.EvaluationSpace(), propagate)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			m := mode.m
			dim := m.Space().Dim()
			l := m.ScanPlans(q, 0)[1]
			// The first round's scratch holds arena scan nodes, ID and
			// scan fields set: the enumeration must overwrite them all.
			scans := m.AppendScanPlans(nil, q, 0, plan.NewArena())
			nodes := make([]plan.Node, 3*len(m.Params().Degrees))
			for i := range nodes {
				nodes[i] = *scans[len(scans)-1-i%len(scans)]
			}
			if nodes[0].ID() == 0 {
				t.Fatal("the stale scratch carries no ID")
			}
			var floats []float64
			round := 0
			for _, right := range []int{1, 2} {
				s := m.NewSplit(q, l.Tables, tableset.Singleton(right))
				if right == 2 && (s.keyL != plan.OrderNone || s.keyR != plan.OrderNone) {
					t.Errorf("split without a crossing edge has merge keys %v, %v", s.keyL, s.keyR)
				}
				for _, r := range m.ScanPlans(q, right) {
					want := m.AppendJoinAlternatives(nil, q, l, r, plan.NewArena())
					prevNodes, prevFloats := nodes, floats
					if round > 0 {
						// Widen each Cost view's capacity: a call that
						// rewrote the view would clip it again.
						for i := range nodes {
							nodes[i].Cost = floats[i*dim : (i+1)*dim]
						}
					}
					nodes, floats = m.JoinAlternativesInto(nodes, floats, &s, l, r)
					for i := range nodes {
						if nodes[i].Left != nil || nodes[i].Right != nil {
							t.Errorf("round %d alt %d: scratch node carries sub-plans", round, i)
						}
						nodes[i].Left, nodes[i].Right = l, r
					}
					for i := range nodes {
						if got, w := nodes[i], *want[i]; got.TableID != w.TableID || got.Scan != w.Scan ||
							got.SampleRate != w.SampleRate || got.Join != w.Join || got.Degree != w.Degree ||
							got.Left != w.Left || got.Right != w.Right {
							t.Errorf("round %d alt %d: scratch %+v, materialised %+v", round, i, got, w)
						}
					}
					if len(nodes) != len(want) || len(floats) != len(want)*dim {
						t.Fatalf("round %d: %d nodes over %d floats, want %d over %d",
							round, len(nodes), len(floats), len(want), len(want)*dim)
					}
					if round > 0 && (&nodes[0] != &prevNodes[0] || &floats[0] != &prevFloats[0]) {
						t.Errorf("round %d: scratch was reallocated", round)
					}
					for i := range nodes {
						got := &nodes[i]
						if got.Signature() != want[i].Signature() || !got.Cost.Equal(want[i].Cost) ||
							got.Rows != want[i].Rows || got.Order != want[i].Order || got.Tables != want[i].Tables {
							t.Errorf("round %d alt %d: scratch %v %v, materialised %v %v",
								round, i, got, got.Cost, want[i], want[i].Cost)
						}
						if got.ID() != 0 {
							t.Errorf("round %d alt %d: scratch node carries ID %d", round, i, got.ID())
						}
						wantCap := dim // built by this call
						if round > 0 {
							wantCap = len(floats) - i*dim // the widened view, untouched
						}
						if &got.Cost[0] != &floats[i*dim] || len(got.Cost) != dim || cap(got.Cost) != wantCap {
							t.Errorf("round %d alt %d: cost is not its own window of the scratch, set once", round, i)
						}
					}
					for i := range nodes {
						nodes[i].Left, nodes[i].Right = nil, nil
					}
					round++
				}
			}
			// A caller that leaves sub-plans in the scratch gets it
			// rebuilt: every view clipped again, no node with children.
			for i := range nodes {
				nodes[i].Cost = floats[i*dim : (i+1)*dim]
			}
			r := m.ScanPlans(q, 1)[0]
			nodes[3].Left, nodes[3].Right = l, r
			s := m.NewSplit(q, l.Tables, r.Tables)
			nodes, floats = m.JoinAlternativesInto(nodes, floats, &s, l, r)
			for i := range nodes {
				if got := &nodes[i]; got.Left != nil || got.Right != nil || cap(got.Cost) != dim {
					t.Errorf("alt %d after a call that left sub-plans: children %v, %v, cost capacity %d",
						i, got.Left, got.Right, cap(got.Cost))
				}
			}
		})
	}
}

// perPairRows and perPairKeys are the per-pair computations a Split
// replaces, kept as the reference it must agree with: a join's output
// rows from the two plans, its merge keys from their table sets.
func perPairRows(m *Model, q *query.Query, l, r *plan.Node) float64 {
	if m.params.PropagateSampling {
		sel, _ := q.CrossSelectivity(l.Tables, r.Tables)
		return math.Max(l.Rows*r.Rows*sel, 1)
	}
	return q.Cardinality(l.Tables.Union(r.Tables))
}

func perPairKeys(q *query.Query, l, r *plan.Node) (plan.Order, plan.Order) {
	a, b, ok := q.MinCrossEdge(l.Tables, r.Tables)
	if !ok {
		return plan.OrderNone, plan.OrderNone
	}
	return plan.OrderOn(a), plan.OrderOn(b)
}

// TestSplitMatchesPerPair checks, for every split of every table subset
// of a 4-table chain, a 4-table star and the 8-table TPC-H Q8 block,
// that what the split prepares once equals what each pair computed for
// itself: the output rows (logical and propagated) and the merge keys,
// read both off the split and off the enumerated alternatives.
func TestSplitMatchesPerPair(t *testing.T) {
	queries := map[string]*query.Query{}
	for name, tp := range map[string]query.Topology{"chain4": query.Chain, "star4": query.Star} {
		q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		queries[name] = q
	}
	q8, ok := workload.Find(workload.MustTPCHBlocks(1), "Q8")
	if !ok {
		t.Fatal("no Q8 block")
	}
	queries["Q8"] = q8.Query
	propagate := DefaultParams()
	propagate.PropagateSampling = true
	models := map[string]*Model{"logical": Default(), "propagate": MustNew(cost.EvaluationSpace(), propagate)}

	var nodes []plan.Node
	var floats []float64
	for qname, q := range queries {
		for mname, m := range models {
			splits := 0
			q.Tables().Subsets(func(sub tableset.Set) bool {
				sub.AllSplits(func(q1, q2 tableset.Set) bool {
					splits++
					s := m.NewSplit(q, q1, q2)
					keyL, keyR := perPairKeys(q, &plan.Node{Tables: q1}, &plan.Node{Tables: q2})
					if s.keyL != keyL || s.keyR != keyR {
						t.Errorf("%s/%s %v×%v: split keys %v, %v; per pair %v, %v",
							qname, mname, q1, q2, s.keyL, s.keyR, keyL, keyR)
					}
					if s.union != sub {
						t.Errorf("%s/%s %v×%v: split union %v", qname, mname, q1, q2, s.union)
					}
					// Two pairs of different input rows: under logical
					// cardinalities they share the split's rows.
					for _, rows := range [][2]float64{{1, 1}, {3e4, 250}} {
						l := &plan.Node{Tables: q1, Rows: rows[0], Cost: cost.NewVector(m.Space().Dim())}
						r := &plan.Node{Tables: q2, Rows: rows[1], Cost: cost.NewVector(m.Space().Dim())}
						want := perPairRows(m, q, l, r)
						if !m.params.PropagateSampling && s.rows != want {
							t.Errorf("%s/%s %v×%v: split rows %g, per pair %g", qname, mname, q1, q2, s.rows, want)
						}
						nodes, floats = m.JoinAlternativesInto(nodes, floats, &s, l, r)
						for i := range nodes {
							n := &nodes[i]
							if n.Rows != want {
								t.Errorf("%s/%s %v×%v alt %d: rows %g, per pair %g", qname, mname, q1, q2, i, n.Rows, want)
							}
							if n.Join == plan.MergeJoin && n.Order != keyL {
								t.Errorf("%s/%s %v×%v alt %d: merge order %v, per pair %v", qname, mname, q1, q2, i, n.Order, keyL)
							}
						}
					}
					return true
				})
				return true
			})
			if splits == 0 {
				t.Errorf("%s/%s: no splits enumerated", qname, mname)
			}
		}
	}
}

// TestSplitRejectsForeignPair pins the guard against a stale split: a
// pair whose table sets are not the split's is a caller bug.
func TestSplitRejectsForeignPair(t *testing.T) {
	q := testQuery(t)
	m := Default()
	s := m.NewSplit(q, tableset.Singleton(0), tableset.Singleton(1))
	defer func() {
		if recover() == nil {
			t.Error("a pair of another split was enumerated")
		}
	}()
	m.JoinAlternativesInto(nil, nil, &s, m.ScanPlans(q, 1)[0], m.ScanPlans(q, 0)[0])
}

func TestJoinCostMonotone(t *testing.T) {
	// Monotone cost aggregation: every join's cost dominates-from-above
	// both children (c(p) >= c(sub) component-wise).
	q := testQuery(t)
	m := Default()
	for _, l := range m.ScanPlans(q, 0) {
		for _, r := range m.ScanPlans(q, 1) {
			for _, j := range m.JoinAlternatives(q, l, r) {
				if !l.Cost.Dominates(j.Cost) || !r.Cost.Dominates(j.Cost) {
					t.Fatalf("monotonicity violated: join %v cost %v, children %v / %v",
						j, j.Cost, l.Cost, r.Cost)
				}
			}
		}
	}
}

func TestDegreeTradeoffs(t *testing.T) {
	q := testQuery(t)
	m := MustNew(cost.NewSpace(cost.Time, cost.Cores, cost.Fees), DefaultParams())
	sp := m.Space()
	l := m.ScanPlans(q, 0)[0]
	r := m.ScanPlans(q, 1)[0]
	var d1, d4 *plan.Node
	for _, j := range m.JoinAlternatives(q, l, r) {
		if j.Join != plan.HashJoin {
			continue
		}
		switch j.Degree {
		case 1:
			d1 = j
		case 4:
			d4 = j
		}
	}
	if d1 == nil || d4 == nil {
		t.Fatal("missing degree variants")
	}
	if sp.Component(d4.Cost, cost.Time) >= sp.Component(d1.Cost, cost.Time) {
		t.Error("higher degree should reduce time")
	}
	if sp.Component(d4.Cost, cost.Cores) <= sp.Component(d1.Cost, cost.Cores) {
		t.Error("higher degree should reserve more cores")
	}
	if sp.Component(d4.Cost, cost.Fees) <= sp.Component(d1.Cost, cost.Fees) {
		t.Error("higher degree should cost more fees (parallel overhead)")
	}
}

func TestMergeJoinOrderAndSortSavings(t *testing.T) {
	q := testQuery(t)
	m := Default()
	// Left input sorted on table 0's key (index scan) vs unsorted.
	var sortedL, unsortedL *plan.Node
	for _, p := range m.ScanPlans(q, 0) {
		switch p.Scan {
		case plan.IndexScan:
			sortedL = p
		case plan.SeqScan:
			unsortedL = p
		}
	}
	r := m.ScanPlans(q, 1)[0]
	pick := func(l *plan.Node) *plan.Node {
		for _, j := range m.JoinAlternatives(q, l, r) {
			if j.Join == plan.MergeJoin && j.Degree == 1 {
				return j
			}
		}
		t.Fatal("no merge join found")
		return nil
	}
	mjSorted, mjUnsorted := pick(sortedL), pick(unsortedL)
	// Merge output is sorted on the left key of the crossing edge (0-1).
	if mjSorted.Order != plan.OrderOn(0) {
		t.Errorf("merge output order = %v, want sorted(t0)", mjSorted.Order)
	}
	// The merge's local work with a pre-sorted input must be strictly
	// smaller: compare cost minus child cost on the time axis.
	sp := m.Space()
	localSorted := sp.Component(mjSorted.Cost, cost.Time) - sp.Component(sortedL.Cost, cost.Time) - sp.Component(r.Cost, cost.Time)
	localUnsorted := sp.Component(mjUnsorted.Cost, cost.Time) - sp.Component(unsortedL.Cost, cost.Time) - sp.Component(r.Cost, cost.Time)
	if localSorted >= localUnsorted {
		t.Errorf("pre-sorted merge local work %g not below unsorted %g", localSorted, localUnsorted)
	}
	// Hash join output is unordered.
	for _, j := range m.JoinAlternatives(q, sortedL, r) {
		if j.Join == plan.HashJoin && j.Order != plan.OrderNone {
			t.Error("hash join must not claim an order")
		}
	}
}

func TestNestLoopWinsForTinyInputs(t *testing.T) {
	cat := catalog.MustNew([]catalog.Table{
		{Name: "a", Rows: 10, RowWidth: 10},
		{Name: "b", Rows: 10, RowWidth: 10},
	})
	q := query.MustNew(cat, []int{0, 1}, []query.JoinEdge{{A: 0, B: 1, Selectivity: 0.1}})
	m := Default()
	sp := m.Space()
	l := m.ScanPlans(q, 0)[0]
	r := m.ScanPlans(q, 1)[0]
	var nl, hash float64
	for _, j := range m.JoinAlternatives(q, l, r) {
		if j.Degree != 1 {
			continue
		}
		switch j.Join {
		case plan.NestLoopJoin:
			nl = sp.Component(j.Cost, cost.Time)
		case plan.HashJoin:
			hash = sp.Component(j.Cost, cost.Time)
		}
	}
	if nl >= hash {
		t.Errorf("nested loop (%g) should beat hash (%g) on 10x10 rows", nl, hash)
	}
}

func TestLogicalVsPropagatedCardinality(t *testing.T) {
	q := testQuery(t)
	exact := Default()
	params := DefaultParams()
	params.PropagateSampling = true
	prop := MustNew(cost.EvaluationSpace(), params)

	var smpExact, smpProp *plan.Node
	for _, p := range exact.ScanPlans(q, 0) {
		if p.Scan == plan.SampleScan && p.SampleRate == 0.1 {
			smpExact = p
		}
	}
	for _, p := range prop.ScanPlans(q, 0) {
		if p.Scan == plan.SampleScan && p.SampleRate == 0.1 {
			smpProp = p
		}
	}
	if smpExact.Rows != q.BaseRows(0) {
		t.Errorf("exact mode must keep logical rows, got %g", smpExact.Rows)
	}
	if want := q.BaseRows(0) * 0.1; math.Abs(smpProp.Rows-want) > 1e-9 {
		t.Errorf("propagated rows = %g, want %g", smpProp.Rows, want)
	}
	// In exact mode every join of the same table pair has identical
	// output rows regardless of scan choice.
	r := exact.ScanPlans(q, 1)[0]
	j1 := exact.JoinAlternatives(q, smpExact, r)[0]
	j2 := exact.JoinAlternatives(q, exact.ScanPlans(q, 0)[0], r)[0]
	if j1.Rows != j2.Rows {
		t.Errorf("logical mode join rows differ: %g vs %g", j1.Rows, j2.Rows)
	}
}

// Property: PONO holds for joins under the default (logical cardinality)
// model — replacing both children with near-optimal substitutes keeps the
// parent within the same factor.
func TestQuickJoinPONO(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cat := catalog.Random(rng, 4, 100, 1e5)
	q, err := query.Synthetic(cat, 4, query.Chain, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	scans0 := m.ScanPlans(q, 0)
	scans1 := m.ScanPlans(q, 1)
	for trial := 0; trial < 300; trial++ {
		l := scans0[rng.Intn(len(scans0))]
		r := scans1[rng.Intn(len(scans1))]
		lStar := scans0[rng.Intn(len(scans0))]
		rStar := scans1[rng.Intn(len(scans1))]
		// Compute the smallest α covering the substitutions.
		alpha := 1.0
		for i := range l.Cost {
			if l.Cost[i] > 0 {
				alpha = math.Max(alpha, lStar.Cost[i]/l.Cost[i])
			} else if lStar.Cost[i] > 0 {
				alpha = math.Inf(1)
			}
			if r.Cost[i] > 0 {
				alpha = math.Max(alpha, rStar.Cost[i]/r.Cost[i])
			} else if rStar.Cost[i] > 0 {
				alpha = math.Inf(1)
			}
		}
		if math.IsInf(alpha, 1) {
			continue // zero-cost component cannot be covered by scaling
		}
		base := m.JoinAlternatives(q, l, r)
		repl := m.JoinAlternatives(q, lStar, rStar)
		if len(base) != len(repl) {
			t.Fatal("alternative counts differ")
		}
		for i := range base {
			// Merge-join sort savings depend on input order, which the
			// PONO statement does not constrain; skip order-sensitive
			// comparisons when the replacement changes the order.
			if base[i].Join == plan.MergeJoin &&
				(l.Order != lStar.Order || r.Order != rStar.Order) {
				continue
			}
			if !repl[i].Cost.Dominates(base[i].Cost.Scale(alpha * (1 + 1e-9))) {
				t.Fatalf("PONO violated (α=%g):\n base %v = %v\n repl %v = %v",
					alpha, base[i], base[i].Cost, repl[i], repl[i].Cost)
			}
		}
	}
}

func TestJoinAcrossSpaces(t *testing.T) {
	q := testQuery(t)
	for _, sp := range []*cost.Space{
		cost.CloudSpace(),
		cost.NewSpace(cost.Time),
		cost.NewSpace(cost.Time, cost.Cores, cost.PrecisionLoss, cost.Fees, cost.Energy),
	} {
		m := MustNew(sp, DefaultParams())
		l := m.ScanPlans(q, 0)[0]
		r := m.ScanPlans(q, 1)[0]
		for _, j := range m.JoinAlternatives(q, l, r) {
			if j.Cost.Dim() != sp.Dim() {
				t.Fatalf("space %v: cost dim %d", sp, j.Cost.Dim())
			}
			if !j.Cost.IsFinite() {
				t.Fatalf("space %v: non-finite cost %v", sp, j.Cost)
			}
		}
	}
}

func TestDefaultParamsDocumented(t *testing.T) {
	p := DefaultParams()
	if len(p.Degrees) != 4 {
		t.Errorf("default degrees = %v", p.Degrees)
	}
	if p.PropagateSampling {
		t.Error("propagation must default to off (exact PONO)")
	}
}

func TestStringHelpers(t *testing.T) {
	// Smoke test that plan rendering includes the operator chosen here;
	// guards against enum/string drift between packages.
	q := testQuery(t)
	m := Default()
	l := m.ScanPlans(q, 0)[0]
	r := m.ScanPlans(q, 1)[0]
	j := m.JoinAlternatives(q, l, r)[0]
	if !strings.Contains(j.String(), "Join") {
		t.Errorf("join plan string %q", j.String())
	}
}
