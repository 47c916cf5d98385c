// Package query models the optimizer's input: a set of base tables to be
// joined, a join graph with per-edge selectivities, and per-table filter
// selectivities. It also estimates intermediate-result cardinalities the
// way classical dynamic-programming optimizers do: the cardinality of a
// join over a table subset is the product of the filtered base
// cardinalities times the product of the selectivities of all join edges
// whose endpoints both lie inside the subset.
//
// The paper uses a deliberately simple query model ("a set Q of tables
// that need to be joined", Section 3) and notes that predicates and
// projections are handled by standard extensions (Section 4.3); this
// package implements that model plus those standard extensions.
package query

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/catalog"
	"repro/internal/tableset"
)

// JoinEdge is a join predicate between two tables, identified by their
// dense catalog IDs, with an estimated selectivity in (0, 1].
type JoinEdge struct {
	A, B        int
	Selectivity float64
}

// Query is one select-project-join block to optimize. Fields are set at
// construction and never mutated afterwards; a Query is safe to share
// across goroutines.
type Query struct {
	name     string
	catalog  *catalog.Catalog
	tables   tableset.Set
	edges    []JoinEdge
	filters  map[int]float64 // table ID → filter selectivity (0,1]
	edgesFor map[int][]int   // table ID → indices into edges

	// The cache keys, each computed at its first call: only New and its
	// options write the fields they digest, so a query that is reused
	// across sessions (a TPC-H block) is hashed once.
	fpOnce, canonOnce, structOnce sync.Once
	keys                          Keys
}

// Option configures a query under construction.
type Option func(*Query) error

// WithFilter attaches a base-table filter with the given selectivity to
// table id. Filters model single-table predicates pushed below the joins.
func WithFilter(id int, selectivity float64) Option {
	return func(q *Query) error {
		if selectivity <= 0 || selectivity > 1 {
			return fmt.Errorf("query: filter selectivity %g for table %d outside (0,1]", selectivity, id)
		}
		if !q.tables.Contains(id) {
			return fmt.Errorf("query: filter references table %d not in query", id)
		}
		q.filters[id] = selectivity
		return nil
	}
}

// WithName sets a human-readable query name used in reports.
func WithName(name string) Option {
	return func(q *Query) error {
		q.name = name
		return nil
	}
}

// New builds a query over the given catalog joining the tables named by
// ids. Every edge must connect two distinct member tables with a
// selectivity in (0, 1]. The join graph must be connected: the paper's DP
// (like Selinger's) never considers cartesian products, so a disconnected
// graph would make some table subsets unplannable.
func New(cat *catalog.Catalog, ids []int, edges []JoinEdge, opts ...Option) (*Query, error) {
	if cat == nil {
		return nil, fmt.Errorf("query: nil catalog")
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("query: no tables")
	}
	var set tableset.Set
	for _, id := range ids {
		if id < 0 || id >= cat.NumTables() {
			return nil, fmt.Errorf("query: table id %d outside catalog [0,%d)", id, cat.NumTables())
		}
		if set.Contains(id) {
			return nil, fmt.Errorf("query: duplicate table id %d", id)
		}
		set = set.Add(id)
	}
	q := &Query{
		name:     "query",
		catalog:  cat,
		tables:   set,
		edges:    append([]JoinEdge(nil), edges...),
		filters:  map[int]float64{},
		edgesFor: map[int][]int{},
	}
	for i, e := range q.edges {
		if e.A == e.B {
			return nil, fmt.Errorf("query: edge %d is a self-join on table %d", i, e.A)
		}
		if !set.Contains(e.A) || !set.Contains(e.B) {
			return nil, fmt.Errorf("query: edge %d (%d,%d) references a table outside the query", i, e.A, e.B)
		}
		if e.Selectivity <= 0 || e.Selectivity > 1 {
			return nil, fmt.Errorf("query: edge %d has selectivity %g outside (0,1]", i, e.Selectivity)
		}
		q.edgesFor[e.A] = append(q.edgesFor[e.A], i)
		q.edgesFor[e.B] = append(q.edgesFor[e.B], i)
	}
	if len(ids) > 1 && !q.connected() {
		return nil, fmt.Errorf("query: join graph is not connected")
	}
	for _, opt := range opts {
		if err := opt(q); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// MustNew is New but panics on error; for static workload definitions.
func MustNew(cat *catalog.Catalog, ids []int, edges []JoinEdge, opts ...Option) *Query {
	q, err := New(cat, ids, edges, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

func (q *Query) connected() bool {
	start := q.tables.Min()
	visited := tableset.Singleton(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, ei := range q.edgesFor[t] {
			e := q.edges[ei]
			other := e.A
			if other == t {
				other = e.B
			}
			if !visited.Contains(other) {
				visited = visited.Add(other)
				frontier = append(frontier, other)
			}
		}
	}
	return visited == q.tables
}

// Name returns the query's display name.
func (q *Query) Name() string { return q.name }

// Catalog returns the catalog the query runs against.
func (q *Query) Catalog() *catalog.Catalog { return q.catalog }

// Tables returns the set of joined tables (the paper's Q).
func (q *Query) Tables() tableset.Set { return q.tables }

// NumTables returns |Q|, the paper's parameter n.
func (q *Query) NumTables() int { return q.tables.Len() }

// Edges returns the join edges (a copy).
func (q *Query) Edges() []JoinEdge {
	return append([]JoinEdge(nil), q.edges...)
}

// FilterSelectivity returns the filter selectivity for table id (1 when
// the table carries no filter).
func (q *Query) FilterSelectivity(id int) float64 {
	if f, ok := q.filters[id]; ok {
		return f
	}
	return 1
}

// BaseRows returns the filtered cardinality of table id: catalog rows
// times the table's filter selectivity.
func (q *Query) BaseRows(id int) float64 {
	return q.catalog.Table(id).Rows * q.FilterSelectivity(id)
}

// Cardinality estimates the result cardinality of joining the tables in
// sub: the product of the member tables' filtered cardinalities times the
// selectivities of all internal join edges. Results are clamped below at
// one row, matching the convention of practical optimizers.
func (q *Query) Cardinality(sub tableset.Set) float64 {
	if !sub.SubsetOf(q.tables) || sub.IsEmpty() {
		panic(fmt.Sprintf("query: Cardinality of %v not a non-empty subset of %v", sub, q.tables))
	}
	card := 1.0
	sub.ForEach(func(id int) {
		card *= q.BaseRows(id)
	})
	for _, e := range q.edges {
		if sub.Contains(e.A) && sub.Contains(e.B) {
			card *= e.Selectivity
		}
	}
	return max(card, 1)
}

// CrossSelectivity returns the product of selectivities of all join edges
// connecting left to right, together with the number of such edges. A
// count of zero means joining left and right would be a cartesian
// product.
func (q *Query) CrossSelectivity(left, right tableset.Set) (sel float64, edges int) {
	sel = 1
	for _, e := range q.edges {
		if (left.Contains(e.A) && right.Contains(e.B)) ||
			(left.Contains(e.B) && right.Contains(e.A)) {
			sel *= e.Selectivity
			edges++
		}
	}
	return sel, edges
}

// MinCrossEdge returns the endpoints of the lexicographically smallest
// join edge connecting left to right, oriented so that a lies in left
// and b in right; ok is false when no edge crosses (a cartesian
// product). It walks the edge list in place: the join enumeration calls
// it once per sub-plan pair.
func (q *Query) MinCrossEdge(left, right tableset.Set) (a, b int, ok bool) {
	for _, e := range q.edges {
		var la, rb int
		switch {
		case left.Contains(e.A) && right.Contains(e.B):
			la, rb = e.A, e.B
		case left.Contains(e.B) && right.Contains(e.A):
			la, rb = e.B, e.A
		default:
			continue
		}
		if !ok || la < a || (la == a && rb < b) {
			a, b, ok = la, rb, true
		}
	}
	return a, b, ok
}

// Connected reports whether the subset sub induces a connected subgraph of
// the join graph. The DP only considers connected subsets, again to avoid
// cartesian products.
func (q *Query) Connected(sub tableset.Set) bool {
	if sub.IsEmpty() {
		return false
	}
	if sub.Len() == 1 {
		return true
	}
	// The frontier is a bitmap too: the optimizer asks this for every
	// split of every invocation, so the walk must not allocate.
	visited := tableset.Singleton(sub.Min())
	frontier := visited
	for !frontier.IsEmpty() {
		t := frontier.Min()
		frontier = frontier.Remove(t)
		for _, ei := range q.edgesFor[t] {
			e := q.edges[ei]
			other := e.A
			if other == t {
				other = e.B
			}
			if sub.Contains(other) && !visited.Contains(other) {
				visited = visited.Add(other)
				frontier = frontier.Add(other)
			}
		}
	}
	return visited == sub
}

// String renders the query for logs: name, tables and edge count.
func (q *Query) String() string {
	return fmt.Sprintf("%s[%d tables, %d edges]", q.name, q.NumTables(), len(q.edges))
}

// Topology names a synthetic join-graph shape.
type Topology int

// Supported synthetic join-graph topologies.
const (
	// Chain joins t0–t1–t2–…; the classic pipeline shape.
	Chain Topology = iota
	// Star joins a fact table t0 to every dimension table.
	Star
	// Cycle is a chain with an extra edge closing the loop.
	Cycle
	// Clique joins every table pair; the worst-case search space.
	Clique
)

// String returns the topology's name.
func (tp Topology) String() string {
	switch tp {
	case Chain:
		return "chain"
	case Star:
		return "star"
	case Cycle:
		return "cycle"
	case Clique:
		return "clique"
	default:
		return fmt.Sprintf("topology(%d)", int(tp))
	}
}

// Synthetic builds a query with the given topology over the first n
// tables of the catalog, with edge selectivities drawn log-uniformly from
// [1e-6, 0.1] and filters applied to a random third of the tables.
// Deterministic for a fixed rng state.
func Synthetic(cat *catalog.Catalog, n int, tp Topology, rng *rand.Rand) (*Query, error) {
	if n < 1 || n > cat.NumTables() {
		return nil, fmt.Errorf("query: Synthetic n=%d outside [1,%d]", n, cat.NumTables())
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sel := func() float64 {
		return 1e-6 * math.Pow(1e5, rng.Float64())
	}
	var edges []JoinEdge
	switch tp {
	case Chain:
		for i := 1; i < n; i++ {
			edges = append(edges, JoinEdge{A: i - 1, B: i, Selectivity: sel()})
		}
	case Star:
		for i := 1; i < n; i++ {
			edges = append(edges, JoinEdge{A: 0, B: i, Selectivity: sel()})
		}
	case Cycle:
		for i := 1; i < n; i++ {
			edges = append(edges, JoinEdge{A: i - 1, B: i, Selectivity: sel()})
		}
		if n > 2 {
			edges = append(edges, JoinEdge{A: n - 1, B: 0, Selectivity: sel()})
		}
	case Clique:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, JoinEdge{A: i, B: j, Selectivity: sel()})
			}
		}
	default:
		return nil, fmt.Errorf("query: unknown topology %v", tp)
	}
	var opts []Option
	opts = append(opts, WithName(fmt.Sprintf("%s-%d", tp, n)))
	for _, id := range ids {
		if rng.Float64() < 1.0/3 {
			opts = append(opts, WithFilter(id, 0.01+0.99*rng.Float64()))
		}
	}
	return New(cat, ids, edges, opts...)
}
