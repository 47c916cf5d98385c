// Package plan defines the query-plan representation the optimizer
// enumerates: binary join trees whose leaves scan base tables. Each node
// carries its physical operator choice (scan type with optional sampling
// rate, join algorithm with a parallelism degree), its estimated output
// cardinality, its cached multi-objective cost vector, and the interesting
// tuple order it produces.
//
// Plans are immutable after construction and are represented by pointers
// to their sub-plans, matching the paper's space analysis (Section 5.2):
// a plan occupies O(1) space of its own because sub-plans are shared.
package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/tableset"
)

// ScanOp enumerates physical scan operators.
type ScanOp int

// Supported scan operators.
const (
	// SeqScan reads the whole table exactly.
	SeqScan ScanOp = iota
	// IndexScan uses a secondary index; cheaper with selective filters
	// but reserves an extra core for index lookups in our cost model,
	// and produces output sorted on the table's key.
	IndexScan
	// SampleScan reads a random sample of the table: time shrinks with
	// the sampling rate while precision loss grows. This models the
	// sampling strategies of the paper's Postgres fork.
	SampleScan
)

// String returns the operator name.
func (op ScanOp) String() string {
	switch op {
	case SeqScan:
		return "SeqScan"
	case IndexScan:
		return "IndexScan"
	case SampleScan:
		return "SampleScan"
	default:
		return fmt.Sprintf("ScanOp(%d)", int(op))
	}
}

// JoinOp enumerates physical join operators.
type JoinOp int

// Supported join operators.
const (
	// HashJoin builds a hash table on the left input.
	HashJoin JoinOp = iota
	// MergeJoin sorts both inputs as needed and merges; its output is
	// sorted on the join key (an interesting order).
	MergeJoin
	// NestLoopJoin is the nested-loops join; competitive only for tiny
	// inputs but kept in the search space as real optimizers do.
	NestLoopJoin
)

// String returns the operator name.
func (op JoinOp) String() string {
	switch op {
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestLoopJoin:
		return "NestLoopJoin"
	default:
		return fmt.Sprintf("JoinOp(%d)", int(op))
	}
}

// Order is an interesting tuple order tag (Selinger-style). OrderNone
// means the plan's output order is unspecified; otherwise the output is
// sorted on the key of the table with dense ID Order-1. Pruning may only
// discard a plan in favour of one whose order covers it.
type Order int

// OrderNone marks plans without a useful output order.
const OrderNone Order = 0

// OrderOn returns the order tag for "sorted on table id's key".
func OrderOn(tableID int) Order { return Order(tableID + 1) }

// TableID returns the table whose key the order refers to; only valid for
// orders other than OrderNone.
func (o Order) TableID() int {
	if o == OrderNone {
		panic("plan: OrderNone has no table")
	}
	return int(o) - 1
}

// Covers reports whether a plan producing order o can stand in for a plan
// producing order req: either req demands nothing, or the orders match.
func (o Order) Covers(req Order) bool { return req == OrderNone || o == req }

// String renders the order tag.
func (o Order) String() string {
	if o == OrderNone {
		return "unordered"
	}
	return fmt.Sprintf("sorted(t%d)", o.TableID())
}

// Node is one query plan (sub-)tree. Exactly one of the scan fields or the
// join fields is meaningful, discriminated by IsScan(). All fields are
// written once at construction and never mutated; Nodes may be shared
// between many parent plans and across goroutines.
type Node struct {
	// Tables is the set of base tables joined by this plan.
	Tables tableset.Set

	// Scan fields (leaf nodes).

	// TableID is the scanned table's dense catalog ID.
	TableID int
	// Scan is the physical scan operator.
	Scan ScanOp
	// SampleRate is the sampling fraction in (0, 1]; 1 for exact scans.
	SampleRate float64

	// Join fields (inner nodes).

	// Join is the physical join operator.
	Join JoinOp
	// Degree is the parallelism degree (reserved cores for the join's
	// local work); at least 1.
	Degree int
	// Left and Right are the sub-plans.
	Left, Right *Node

	// Derived, cached at construction.

	// Rows is the estimated output cardinality after sampling.
	Rows float64
	// Cost is the plan's multi-objective cost vector.
	Cost cost.Vector
	// Order is the interesting tuple order of the output.
	Order Order

	// id is the dense arena ID (see Arena); 0 outside an arena.
	id uint32
}

// IsScan reports whether n is a leaf (scan) node.
func (n *Node) IsScan() bool { return n.Left == nil }

// NumTables returns the number of base tables the plan joins.
func (n *Node) NumTables() int { return n.Tables.Len() }

// Validate checks structural invariants of the plan tree: table sets of
// children partition the parent's, sampling rates are in range, degrees
// positive, cost vectors finite. It returns the first violation found.
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("plan: nil node")
	}
	if n.Tables.IsEmpty() {
		return fmt.Errorf("plan: node with empty table set")
	}
	if n.Cost != nil && !n.Cost.IsFinite() {
		return fmt.Errorf("plan: non-finite cost %v", n.Cost)
	}
	if n.Rows < 0 {
		return fmt.Errorf("plan: negative row estimate %g", n.Rows)
	}
	if n.IsScan() {
		if n.Right != nil {
			return fmt.Errorf("plan: scan with right child")
		}
		if n.Tables != tableset.Singleton(n.TableID) {
			return fmt.Errorf("plan: scan tables %v != {%d}", n.Tables, n.TableID)
		}
		if n.SampleRate <= 0 || n.SampleRate > 1 {
			return fmt.Errorf("plan: sample rate %g outside (0,1]", n.SampleRate)
		}
		if n.Scan == SampleScan && n.SampleRate == 1 {
			return fmt.Errorf("plan: SampleScan with rate 1 duplicates SeqScan")
		}
		return nil
	}
	if n.Right == nil {
		return fmt.Errorf("plan: join with single child")
	}
	if n.Degree < 1 {
		return fmt.Errorf("plan: join degree %d < 1", n.Degree)
	}
	if !n.Left.Tables.Disjoint(n.Right.Tables) {
		return fmt.Errorf("plan: overlapping children %v and %v", n.Left.Tables, n.Right.Tables)
	}
	if n.Left.Tables.Union(n.Right.Tables) != n.Tables {
		return fmt.Errorf("plan: children %v ∪ %v != %v", n.Left.Tables, n.Right.Tables, n.Tables)
	}
	if err := n.Left.Validate(); err != nil {
		return err
	}
	return n.Right.Validate()
}

// String renders the plan as a single-line expression, e.g.
// "HashJoin:2(SeqScan(t0), IndexScan(t1))".
func (n *Node) String() string {
	var buf [256]byte
	return string(n.AppendString(buf[:0]))
}

// AppendString appends the String rendering of the plan to dst and
// returns the extended slice. It is the allocation-free form the poll
// encoder renders whole frontiers with; sampling rates print with two
// significant digits (fmt's %.2g).
func (n *Node) AppendString(dst []byte) []byte {
	if n.IsScan() {
		dst = append(dst, n.Scan.String()...)
		dst = append(dst, "(t"...)
		dst = strconv.AppendInt(dst, int64(n.TableID), 10)
		if n.Scan == SampleScan {
			dst = append(dst, '@')
			dst = strconv.AppendFloat(dst, n.SampleRate, 'g', 2, 64)
		}
		return append(dst, ')')
	}
	dst = append(dst, n.Join.String()...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(n.Degree), 10)
	dst = append(dst, '(')
	dst = n.Left.AppendString(dst)
	dst = append(dst, ", "...)
	dst = n.Right.AppendString(dst)
	return append(dst, ')')
}

// AppendJSON appends the plan as the JSON object a poll body carries
// for it, {"plan":"<String>","cost":[…],"rows":…}, byte for byte what
// encoding/json writes for that struct: a nil cost vector as null,
// numbers as shortest round-trip floats in ES6 form. A rendered plan is
// operator names, digits and punctuation that JSON passes through
// unescaped. A non-finite cost component or row estimate, which JSON
// cannot carry, appends nothing and reports false.
func (n *Node) AppendJSON(dst []byte) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, `{"plan":"`...)
	dst = n.AppendString(dst)
	if n.Cost == nil {
		dst = append(dst, `","cost":null`...)
	} else {
		dst = append(dst, `","cost":[`...)
		for j, c := range n.Cost {
			if j > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = appendJSONFloat(dst, c); !ok {
				return dst[:start], false
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	dst, ok := appendJSONFloat(dst, n.Rows)
	if !ok {
		return dst[:start], false
	}
	return append(dst, '}'), true
}

// appendJSONFloat appends f the way encoding/json formats a float64:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// two-digit exponents trimmed of their leading zero. It reports false,
// appending nothing, for NaN and ±Inf.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// Indented renders the plan as a multi-line tree for CLI display.
func (n *Node) Indented() string {
	var b strings.Builder
	n.renderIndented(&b, 0)
	return b.String()
}

func (n *Node) renderIndented(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsScan() {
		if n.Scan == SampleScan {
			fmt.Fprintf(b, "%s%s t%d rate=%.2g rows=%.3g cost=%v\n",
				indent, n.Scan, n.TableID, n.SampleRate, n.Rows, n.Cost)
		} else {
			fmt.Fprintf(b, "%s%s t%d rows=%.3g cost=%v\n",
				indent, n.Scan, n.TableID, n.Rows, n.Cost)
		}
		return
	}
	fmt.Fprintf(b, "%s%s deg=%d rows=%.3g cost=%v\n",
		indent, n.Join, n.Degree, n.Rows, n.Cost)
	n.Left.renderIndented(b, depth+1)
	n.Right.renderIndented(b, depth+1)
}

// Signature returns a canonical string identifying the logical+physical
// plan shape (operators, sub-structure), ignoring cached cost. Two plans
// with equal signatures are the same plan. Used by tests to detect
// duplicate plan generation.
func (n *Node) Signature() string {
	var b strings.Builder
	n.signature(&b)
	return b.String()
}

func (n *Node) signature(b *strings.Builder) {
	if n.IsScan() {
		fmt.Fprintf(b, "s%d:%d:%g", int(n.Scan), n.TableID, n.SampleRate)
		return
	}
	fmt.Fprintf(b, "j%d:%d(", int(n.Join), n.Degree)
	n.Left.signature(b)
	b.WriteByte(',')
	n.Right.signature(b)
	b.WriteByte(')')
}
