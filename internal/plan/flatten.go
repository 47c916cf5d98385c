package plan

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/tableset"
)

// Flat is the dense-ID wire form of one plan node: the same fields as
// Node, but with the sub-plans replaced by their arena IDs. A detached
// snapshot DAG flattens losslessly because arena IDs are unique per
// optimizer lineage (DESIGN.md D8) and assigned in allocation order,
// which is a topological order of every plan tree — a node's children
// always carry strictly smaller IDs.
type Flat struct {
	ID         uint32
	Tables     tableset.Set
	TableID    int32
	Scan       ScanOp
	SampleRate float64
	Join       JoinOp
	Degree     int32
	// Left and Right are the sub-plan IDs; meaningless for scans
	// (discriminated, like Node, by IsScan).
	Left, Right uint32
	Rows        float64
	Cost        cost.Vector
	Order       Order
}

// IsScan reports whether the flat node is a leaf (scan) node.
func (f *Flat) IsScan() bool { return f.Tables.Len() == 1 }

// Flattener collects the distinct nodes of detached plan DAGs into a
// flat node table for serialization. Add every root (the shared memo
// preserves sub-plan sharing across roots, exactly like DetachInto),
// then read Nodes for the ID-sorted table.
type Flattener struct {
	seen  map[uint32]struct{}
	nodes []Flat
}

// NewFlattener returns an empty flattener.
func NewFlattener() *Flattener {
	return &Flattener{seen: map[uint32]struct{}{}}
}

// Add records the DAG rooted at n (deduplicated by node ID against
// everything added before) and returns n's ID.
func (f *Flattener) Add(n *Node) uint32 {
	if _, ok := f.seen[n.id]; ok {
		return n.id
	}
	f.seen[n.id] = struct{}{}
	fl := Flat{
		ID:         n.id,
		Tables:     n.Tables,
		Rows:       n.Rows,
		Cost:       n.Cost,
		Order:      n.Order,
		TableID:    int32(n.TableID),
		Scan:       n.Scan,
		SampleRate: n.SampleRate,
		Join:       n.Join,
		Degree:     int32(n.Degree),
	}
	if !n.IsScan() {
		fl.Left = f.Add(n.Left)
		fl.Right = f.Add(n.Right)
	}
	f.nodes = append(f.nodes, fl)
	return n.id
}

// Nodes returns the collected node table sorted by ID (children before
// parents — the order a NodeTable requires).
func (f *Flattener) Nodes() []Flat {
	sort.Slice(f.nodes, func(i, j int) bool { return f.nodes[i].ID < f.nodes[j].ID })
	return f.nodes
}

// NodeTable rebuilds the shared node DAG from its flat form one node
// at a time, as a decoder parses them: the nodes live in one slab sized
// up front and are found by ID through an index into it. Every
// structural invariant of Node.Validate is re-checked as a node is
// added, so corrupted input yields an error, never an inconsistent DAG;
// children resolve by ID against the nodes added before, so sub-plan
// sharing is restored exactly. Nodes are immutable once added, like any
// detached snapshot node, and share one allocation: any one of them
// keeps the slab alive.
type NodeTable struct {
	nodes []Node
	// index maps a node ID to its slab position. It holds no pointers,
	// so the collector never scans it.
	index map[uint32]int32
}

// NewNodeTable returns an empty table with room for n nodes; Add
// refuses a node beyond that, since growing the slab would move the
// nodes already handed out.
func NewNodeTable(n int) *NodeTable {
	return &NodeTable{nodes: make([]Node, 0, n), index: make(map[uint32]int32, n)}
}

// Add checks f against the nodes added before it — IDs strictly
// increasing, a finite cost, rows ≥ 0, the order inside the table set,
// the scan or join shape, children present and partitioning the table
// set — and appends its node. The node takes f.Cost as it is (the
// caller must not reuse the vector); f itself may be reused.
func (t *NodeTable) Add(f *Flat) error {
	k := len(t.nodes)
	if k == cap(t.nodes) {
		return fmt.Errorf("plan: node table full at %d nodes", k)
	}
	if k > 0 && f.ID <= t.nodes[k-1].id {
		return fmt.Errorf("plan: flat node IDs not strictly increasing at %d", f.ID)
	}
	if f.Cost == nil || !f.Cost.IsFinite() {
		return fmt.Errorf("plan: flat node %d with non-finite cost %v", f.ID, f.Cost)
	}
	if f.Rows < 0 {
		return fmt.Errorf("plan: flat node %d with negative rows %g", f.ID, f.Rows)
	}
	if f.Order != OrderNone {
		if o := int(f.Order) - 1; o < 0 || o >= tableset.MaxTables || !f.Tables.Contains(o) {
			return fmt.Errorf("plan: flat node %d ordered on table outside its set", f.ID)
		}
	}
	n := Node{
		Tables: f.Tables,
		Rows:   f.Rows,
		Cost:   f.Cost,
		Order:  f.Order,
		id:     f.ID,
	}
	if f.IsScan() {
		n.TableID = int(f.TableID)
		n.Scan = f.Scan
		n.SampleRate = f.SampleRate
		if n.TableID < 0 || n.TableID >= tableset.MaxTables ||
			f.Tables != tableset.Singleton(n.TableID) {
			return fmt.Errorf("plan: flat scan %d tables %v != {%d}", f.ID, f.Tables, n.TableID)
		}
		if n.SampleRate <= 0 || n.SampleRate > 1 {
			return fmt.Errorf("plan: flat scan %d sample rate %g outside (0,1]", f.ID, n.SampleRate)
		}
	} else {
		if f.Tables.IsEmpty() {
			return fmt.Errorf("plan: flat node %d with empty table set", f.ID)
		}
		n.Join = f.Join
		n.Degree = int(f.Degree)
		if n.Degree < 1 {
			return fmt.Errorf("plan: flat join %d degree %d < 1", f.ID, n.Degree)
		}
		l, r := t.Lookup(f.Left), t.Lookup(f.Right)
		if l == nil || r == nil {
			return fmt.Errorf("plan: flat join %d references missing child", f.ID)
		}
		if !l.Tables.Disjoint(r.Tables) || l.Tables.Union(r.Tables) != f.Tables {
			return fmt.Errorf("plan: flat join %d children %v ∪ %v != %v",
				f.ID, l.Tables, r.Tables, f.Tables)
		}
		n.Left, n.Right = l, r
	}
	t.nodes = append(t.nodes, n)
	t.index[f.ID] = int32(k)
	return nil
}

// Lookup returns the node added under id, or nil.
func (t *NodeTable) Lookup(id uint32) *Node {
	i, ok := t.index[id]
	if !ok {
		return nil
	}
	return &t.nodes[i]
}
