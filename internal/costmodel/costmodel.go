// Package costmodel implements the multi-objective plan cost model and
// the physical-alternative enumeration (scan variants, join operators,
// parallelism degrees) the optimizer searches over.
//
// The paper reuses the cost models of a Postgres fork covering three plan
// cost metrics — execution time, consumed system resources (reserved
// cores), and result precision — and notes that the algorithm supports
// any metric whose recursive aggregation function is built from sums,
// maxima, minima and non-negative constant factors (the PONO class,
// Section 5.1), under monotone cost aggregation. This package provides
// such a model for five metrics (time, cores, precision loss, monetary
// fees, energy):
//
//   - time(join)   = time(L) + time(R) + work/degree
//   - cores(join)  = max(cores(L), cores(R), degree)
//   - ploss(join)  = ploss(L) + ploss(R)
//   - fees(join)   = fees(L) + fees(R) + feeRate·work·(1 + feeOvh·(degree−1))
//   - energy(join) = energy(L) + energy(R) + energyRate·work·(1 + leak·(degree−1))
//
// where work is the operator's local effort computed from the children's
// cardinality estimates. By default those estimates are the *logical*
// cardinalities (sampling does not shrink downstream inputs), which makes
// every local work term a pure function of the joined table sets, so the
// PONO holds exactly and the approximation guarantees of Section 5.1 are
// testable against exhaustive ground truth. Setting PropagateSampling
// trades that exactness for realism (sampled scans shrink downstream
// work), matching what a practical system would do.
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
)

// Params holds the cost model's tuning constants. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	// SeqIOCost is the time per (row·byte) of a sequential scan.
	SeqIOCost float64
	// IndexRandomPenalty multiplies per-row cost for index lookups.
	IndexRandomPenalty float64
	// IndexLookupCost is the fixed per-probe descent cost factor.
	IndexLookupCost float64
	// SampleOverhead is the fixed setup cost of a sampled scan.
	SampleOverhead float64
	// HashPerRow is the per-input-row cost of a hash join.
	HashPerRow float64
	// HashSetup is the fixed hash-table build overhead.
	HashSetup float64
	// SortPerRowLog is the per-row·log(row) cost of sorting a merge
	// input that is not already ordered on the join key.
	SortPerRowLog float64
	// MergePerRow is the per-row cost of the merge phase.
	MergePerRow float64
	// NestLoopPerPair is the cost per considered row pair of a nested
	// loop join.
	NestLoopPerPair float64
	// OutputPerRow is the per-output-row materialization cost shared by
	// all joins.
	OutputPerRow float64
	// FeeRate converts local work into monetary fees.
	FeeRate float64
	// FeeParallelOverhead is the extra fee fraction per additional core
	// (cloud parallelism is not free).
	FeeParallelOverhead float64
	// EnergyRate converts local work into energy.
	EnergyRate float64
	// EnergyLeak is the extra energy fraction per additional core.
	EnergyLeak float64
	// Degrees lists the parallelism degrees enumerated per join.
	Degrees []int
	// PropagateSampling, when set, lets sampled scans shrink the
	// cardinality estimates that drive downstream join work. Off by
	// default to keep the PONO exact (see package comment).
	PropagateSampling bool
}

// DefaultParams returns the calibrated default constants. Time values are
// abstract cost units; only ratios matter for the reproduction.
func DefaultParams() Params {
	return Params{
		SeqIOCost:           1e-4,
		IndexRandomPenalty:  4,
		IndexLookupCost:     0.01,
		SampleOverhead:      0.5,
		HashPerRow:          2e-4,
		HashSetup:           0.2,
		SortPerRowLog:       5e-5,
		MergePerRow:         1.2e-4,
		NestLoopPerPair:     5e-7,
		OutputPerRow:        5e-5,
		FeeRate:             0.8,
		FeeParallelOverhead: 0.10,
		EnergyRate:          0.5,
		EnergyLeak:          0.05,
		// Adjacent degrees differ by 33–100% in local join time; the
		// gaps resolve at coarse-to-middle precision factors (see the
		// sampling-rate comment in catalog.TPCH).
		Degrees: []int{1, 2, 3, 4},
	}
}

// Model evaluates plan costs for a fixed metric space and enumerates
// physical plan alternatives. A Model is immutable and safe for
// concurrent use.
type Model struct {
	space  *cost.Space
	params Params
	// echo renders params and space once, for Echo.
	echo string
}

// New builds a model over the given metric space.
func New(space *cost.Space, params Params) (*Model, error) {
	if space == nil {
		return nil, fmt.Errorf("costmodel: nil space")
	}
	if len(params.Degrees) == 0 {
		return nil, fmt.Errorf("costmodel: no parallelism degrees configured")
	}
	seen := map[int]bool{}
	for _, d := range params.Degrees {
		if d < 1 {
			return nil, fmt.Errorf("costmodel: degree %d < 1", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("costmodel: duplicate degree %d", d)
		}
		seen[d] = true
	}
	for name, v := range map[string]float64{
		"SeqIOCost":       params.SeqIOCost,
		"HashPerRow":      params.HashPerRow,
		"MergePerRow":     params.MergePerRow,
		"NestLoopPerPair": params.NestLoopPerPair,
	} {
		if v <= 0 {
			return nil, fmt.Errorf("costmodel: %s must be positive", name)
		}
	}
	return &Model{space: space, params: params, echo: fmt.Sprintf("%+v|%v", params, space)}, nil
}

// MustNew is New but panics on error.
func MustNew(space *cost.Space, params Params) *Model {
	m, err := New(space, params)
	if err != nil {
		panic(err)
	}
	return m
}

// Default returns a model over the paper's three-metric evaluation space
// with default parameters.
func Default() *Model {
	return MustNew(cost.EvaluationSpace(), DefaultParams())
}

// Space returns the model's metric space.
func (m *Model) Space() *cost.Space { return m.space }

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.params }

// Echo returns the model's part of a snapshot's configuration echo: its
// parameters and its space, rendered as fmt's "%+v|%v" renders them. A
// model is immutable, so the string is rendered once, at construction.
func (m *Model) Echo() string { return m.echo }

// ScanPlans enumerates all physical scan alternatives for table id of
// query q, fully costed. The alternatives are: a sequential scan, an
// index scan when the catalog grants one, and one sample scan per
// sampling rate below one.
func (m *Model) ScanPlans(q *query.Query, id int) []*plan.Node {
	return m.AppendScanPlans(nil, q, id, nil)
}

// AppendScanPlans is ScanPlans appending into dst, allocating nodes and
// cost vectors from arena a (both may be nil). The optimizer uses this
// form so scan enumeration shares its arena and scratch slice.
func (m *Model) AppendScanPlans(dst []*plan.Node, q *query.Query, id int, a *plan.Arena) []*plan.Node {
	tbl := q.Catalog().Table(id)
	baseRows := q.BaseRows(id)

	seqTime := tbl.Rows * tbl.RowWidth * m.params.SeqIOCost
	dst = append(dst, m.newScan(a, plan.Node{
		Tables:     tableset.Singleton(id),
		TableID:    id,
		Scan:       plan.SeqScan,
		SampleRate: 1,
		Rows:       baseRows,
		Order:      plan.OrderNone,
	}, seqTime, 1, 0))

	if tbl.HasIndex {
		idxTime := baseRows*tbl.RowWidth*m.params.SeqIOCost*m.params.IndexRandomPenalty +
			math.Log2(tbl.Rows+1)*m.params.IndexLookupCost
		dst = append(dst, m.newScan(a, plan.Node{
			Tables:     tableset.Singleton(id),
			TableID:    id,
			Scan:       plan.IndexScan,
			SampleRate: 1,
			Rows:       baseRows,
			Order:      plan.OrderOn(id),
		}, idxTime, 2, 0))
	}

	for _, rate := range tbl.SamplingRates {
		if rate >= 1 {
			continue // the exact scan is the SeqScan above
		}
		rows := baseRows
		if m.params.PropagateSampling {
			rows = math.Max(baseRows*rate, 1)
		}
		smpTime := tbl.Rows*rate*tbl.RowWidth*m.params.SeqIOCost + m.params.SampleOverhead
		dst = append(dst, m.newScan(a, plan.Node{
			Tables:     tableset.Singleton(id),
			TableID:    id,
			Scan:       plan.SampleScan,
			SampleRate: rate,
			Rows:       rows,
			Order:      plan.OrderNone,
		}, smpTime, 1, 1-rate))
	}
	return dst
}

// newScan allocates a costed leaf node from proto and its scalar time,
// cores and precision-loss values.
func (m *Model) newScan(a *plan.Arena, proto plan.Node, time float64, cores float64, ploss float64) *plan.Node {
	v := a.NewVector(m.space.Dim())
	m.scanCostInto(v, time, cores, ploss)
	proto.Cost = v
	return a.NewNode(proto)
}

// scanCostInto spreads a scan's scalar time, cores and precision-loss
// values across the metric space into v (shared by enumeration and
// re-costing, so the two can never drift apart).
func (m *Model) scanCostInto(v cost.Vector, time, cores, ploss float64) {
	for i := range v {
		switch m.space.MetricAt(i) {
		case cost.Time:
			v[i] = time
		case cost.Cores:
			v[i] = cores
		case cost.PrecisionLoss:
			v[i] = ploss
		case cost.Fees:
			v[i] = m.params.FeeRate * time * cores
		case cost.Energy:
			v[i] = m.params.EnergyRate * time * cores
		}
	}
}

// joinOps lists the enumerated join operators (package-level so the hot
// loop does not rebuild the slice per call).
var joinOps = [...]plan.JoinOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin}

// JoinAlternatives enumerates every physical join of the two sub-plans:
// each join operator crossed with each parallelism degree, fully costed.
// Nested-loop joins are enumerated only when a join predicate connects
// the inputs (no cartesian products reach this function in the DP, but
// defensive callers may pass arbitrary pairs, so the check stays cheap).
func (m *Model) JoinAlternatives(q *query.Query, left, right *plan.Node) []*plan.Node {
	return m.AppendJoinAlternatives(nil, q, left, right, nil)
}

// Split holds what a join's enumeration reads of its two input table
// sets rather than of its two input plans: the union, the logical output
// cardinality and the merge keys. Every pair of plans for one split
// (Left, Right) of a table set shares them, so callers that join many
// pairs of one split prepare it once with NewSplit and pass it to
// JoinAlternativesInto or AppendSplitAlternatives.
type Split struct {
	// Left and Right are the table sets of the joined sub-plans.
	Left, Right tableset.Set

	union tableset.Set
	// rows is the logical output cardinality; sel is the crossing
	// edges' selectivity, which PropagateSampling multiplies into each
	// pair's own input rows instead.
	rows, sel  float64
	keyL, keyR plan.Order
}

// NewSplit prepares the split (left, right) of query q.
func (m *Model) NewSplit(q *query.Query, left, right tableset.Set) Split {
	s := Split{Left: left, Right: right, union: left.Union(right)}
	if m.params.PropagateSampling {
		s.sel, _ = q.CrossSelectivity(left, right)
	} else {
		// Logical cardinality: a pure function of the joined table set,
		// so all plans for the same set share downstream work (exact
		// PONO).
		s.rows = q.Cardinality(s.union)
	}
	s.keyL, s.keyR = mergeKeys(q, left, right)
	return s
}

// outputRows estimates the output cardinality of joining left and right,
// a pair of split s.
func (m *Model) outputRows(s *Split, left, right *plan.Node) float64 {
	if m.params.PropagateSampling {
		return max(left.Rows*right.Rows*s.sel, 1)
	}
	return s.rows
}

// AppendJoinAlternatives is JoinAlternatives appending into dst,
// allocating nodes and cost vectors from arena a (both may be nil).
// Every alternative is materialised; callers that discard most of what
// they enumerate (the optimizer's inner loop) use JoinAlternativesInto
// and copy only the survivors.
func (m *Model) AppendJoinAlternatives(dst []*plan.Node, q *query.Query, left, right *plan.Node, a *plan.Arena) []*plan.Node {
	s := m.NewSplit(q, left.Tables, right.Tables)
	return m.AppendSplitAlternatives(dst, &s, left, right, a)
}

// AppendSplitAlternatives is AppendJoinAlternatives for a pair of the
// prepared split s.
func (m *Model) AppendSplitAlternatives(dst []*plan.Node, s *Split, left, right *plan.Node, a *plan.Arena) []*plan.Node {
	dim := m.space.Dim()
	m.fillJoinAlternatives(s, left, right, func(int) *plan.Node {
		n := a.NewNode(plan.Node{Left: left, Right: right, Cost: a.NewVector(dim)})
		dst = append(dst, n)
		return n
	})
	return dst
}

// JoinAlternativesInto enumerates the same alternatives, in the same
// order, for a pair of the prepared split s, as values into caller-owned
// scratch, and returns the (possibly rebuilt) scratch. The nodes carry
// no arena ID and no sub-plans: a caller that needs a complete plan
// attaches (Left, Right) = (left, right) itself, and clears them again
// before the next call. The scratch is built once — every node zero but
// for a Cost view of its own window of floats — when the slices passed
// are not one this method returned (or a caller left sub-plans in it);
// each later call writes only the join fields and the cost values, no
// pointer, so it neither touches the heap nor takes a write barrier.
// The nodes are valid until the scratch is reused.
func (m *Model) JoinAlternativesInto(nodes []plan.Node, floats []float64, s *Split, left, right *plan.Node) ([]plan.Node, []float64) {
	dim := m.space.Dim()
	n := len(joinOps) * len(m.params.Degrees)
	if !scratchBuilt(nodes, floats, n, dim) {
		if cap(nodes) < n {
			nodes = make([]plan.Node, n)
		}
		if cap(floats) < n*dim {
			floats = make([]float64, n*dim)
		}
		nodes, floats = nodes[:n], floats[:n*dim]
		for i := range nodes {
			nodes[i] = plan.Node{Cost: floats[i*dim : (i+1)*dim : (i+1)*dim]}
		}
	}
	m.fillJoinAlternatives(s, left, right, func(i int) *plan.Node { return &nodes[i] })
	return nodes, floats
}

// scratchBuilt reports whether nodes and floats are a scratch of n
// alternatives of dimension dim that JoinAlternativesInto built: every
// node's Cost views its own window of floats, and no node has
// sub-plans.
func scratchBuilt(nodes []plan.Node, floats []float64, n, dim int) bool {
	if len(nodes) != n || len(floats) != n*dim {
		return false
	}
	for i := range nodes {
		p := &nodes[i]
		if len(p.Cost) != dim || &p.Cost[0] != &floats[i*dim] || p.Left != nil || p.Right != nil {
			return false
		}
	}
	return true
}

// fillJoinAlternatives is the one op×degree enumeration body behind
// the forms above (so they can never drift apart): for the i-th
// alternative it takes a node from slot(i) — zero but for its join
// fields, its sub-plans and a Cost vector of the model's dimension — and
// fills in the join fields and the cost. It writes no pointer.
func (m *Model) fillJoinAlternatives(s *Split, left, right *plan.Node, slot func(i int) *plan.Node) {
	if left.Tables != s.Left || right.Tables != s.Right {
		panic(fmt.Sprintf("costmodel: pair %v × %v is not of split %v × %v", left.Tables, right.Tables, s.Left, s.Right))
	}
	outRows := m.outputRows(s, left, right)
	i := 0
	for _, op := range joinOps {
		work, order := m.localWork(op, left, right, outRows, s.keyL, s.keyR)
		for _, d := range m.params.Degrees {
			n := slot(i)
			i++
			n.Tables, n.Join, n.Degree = s.union, op, d
			n.Rows, n.Order = outRows, order
			m.joinCostInto(n.Cost, left, right, work, d)
		}
	}
}

// mergeKeys picks the sort keys a merge join of left and right would
// use: the endpoints of the lexicographically smallest crossing join
// edge. Returns OrderNone keys when the inputs are not connected
// (cartesian product).
func mergeKeys(q *query.Query, left, right tableset.Set) (plan.Order, plan.Order) {
	a, b, ok := q.MinCrossEdge(left, right)
	if !ok {
		return plan.OrderNone, plan.OrderNone
	}
	return plan.OrderOn(a), plan.OrderOn(b)
}

// localWork computes an operator's local effort and output order.
func (m *Model) localWork(op plan.JoinOp, left, right *plan.Node, outRows float64, keyL, keyR plan.Order) (float64, plan.Order) {
	p := &m.params
	nL, nR := max(left.Rows, 1), max(right.Rows, 1)
	outCost := p.OutputPerRow * outRows
	switch op {
	case plan.HashJoin:
		return p.HashSetup + p.HashPerRow*(nL+nR) + outCost, plan.OrderNone
	case plan.MergeJoin:
		w := p.MergePerRow*(nL+nR) + outCost
		if keyL == plan.OrderNone || !left.Order.Covers(keyL) {
			w += p.SortPerRowLog * nL * math.Log2(nL+2)
		}
		if keyR == plan.OrderNone || !right.Order.Covers(keyR) {
			w += p.SortPerRowLog * nR * math.Log2(nR+2)
		}
		order := keyL
		if keyL == plan.OrderNone {
			order = plan.OrderNone
		}
		return w, order
	case plan.NestLoopJoin:
		return p.NestLoopPerPair*nL*nR + outCost, plan.OrderNone
	default:
		panic(fmt.Sprintf("costmodel: unknown join op %v", op))
	}
}

// joinCostInto aggregates the children's cost vectors with the local
// work, writing the result into v.
func (m *Model) joinCostInto(v cost.Vector, left, right *plan.Node, work float64, degree int) {
	p := &m.params
	d := float64(degree)
	for i := range v {
		l, r := left.Cost[i], right.Cost[i]
		switch m.space.MetricAt(i) {
		case cost.Time:
			v[i] = l + r + work/d
		case cost.Cores:
			v[i] = max(l, r, d)
		case cost.PrecisionLoss:
			v[i] = l + r
		case cost.Fees:
			v[i] = l + r + p.FeeRate*work*(1+p.FeeParallelOverhead*(d-1))
		case cost.Energy:
			v[i] = l + r + p.EnergyRate*work*(1+p.EnergyLeak*(d-1))
		}
	}
}
