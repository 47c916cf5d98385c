package plan

import (
	"fmt"

	"repro/internal/cost"
)

// arenaChunk is the number of Nodes (and the number of cost-vector
// components) allocated per arena block. Large enough to amortize the
// block allocation across the optimizer's plan-generation burst, small
// enough not to waste memory on tiny queries.
const arenaChunk = 512

// Arena is a chunked allocator for plan Nodes and their cost vectors.
// The optimizer's inner loop constructs thousands of short-lived join
// alternatives per invocation; allocating each as an individual GC
// object dominates the allocation profile (DESIGN.md D8). An Arena
// hands out Node values from block-allocated slabs instead, so the
// per-node cost is a pointer bump, and assigns every node a dense
// uint32 ID used to pack sub-plan pairs into a single uint64 memo key.
//
// Nodes allocated from an Arena are never freed individually: result
// plans reference their sub-plans by pointer, so the arena's memory
// lives as long as its owning optimizer. Because retention is
// chunk-granular, references that outlive the optimizer — warm-start
// snapshots, plans handed to clients after their session closed — must
// be detached first (DetachInto deep-copies a tree off the arena,
// preserving IDs and sub-plan sharing); core.Snapshot and the
// service's Select do exactly that.
//
// An Arena is not safe for concurrent use; each Optimizer owns one.
type Arena struct {
	nodes  []Node
	floats []float64
	nextID uint32
}

// NewArena returns an empty arena whose first node receives ID 0.
func NewArena() *Arena { return &Arena{} }

// NewArenaFrom returns an empty arena whose first node receives the
// given ID. Snapshot restore uses this to continue the source arena's
// dense numbering, keeping IDs unique within the restored optimizer
// even though it shares the snapshot's nodes.
func NewArenaFrom(nextID uint32) *Arena { return &Arena{nextID: nextID} }

// NewNode copies proto into arena storage, assigns the next dense ID,
// and returns the stored node. A nil arena falls back to an individual
// heap allocation with ID 0 (callers that never consult IDs, such as
// the baseline optimizers, may pass nil).
func (a *Arena) NewNode(proto Node) *Node {
	if a == nil {
		n := new(Node)
		*n = proto
		return n
	}
	if a.nextID == ^uint32(0) {
		// Last-resort guard; optimizer lifecycles that could approach
		// this (snapshot lineages) decline the warm start well before
		// (see core.NewOptimizerFromSnapshot).
		panic("plan: arena node IDs exhausted")
	}
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Node, 0, arenaChunk)
	}
	a.nodes = append(a.nodes, proto)
	n := &a.nodes[len(a.nodes)-1]
	n.id = a.nextID
	a.nextID++
	return n
}

// NewVector returns a zero cost vector with dim components carved from
// arena slab storage. Like nodes, arena vectors are never freed
// individually; they are intended for the immutable Cost field of
// arena-allocated nodes. A nil arena falls back to a regular make.
func (a *Arena) NewVector(dim int) cost.Vector {
	if dim <= 0 {
		panic(fmt.Sprintf("plan: arena vector dim %d must be positive", dim))
	}
	if a == nil {
		return make(cost.Vector, dim)
	}
	if len(a.floats)+dim > cap(a.floats) {
		size := arenaChunk
		if dim > size {
			size = dim
		}
		a.floats = make([]float64, 0, size)
	}
	start := len(a.floats)
	a.floats = a.floats[:start+dim]
	// The returned view is capacity-limited so appending to it cannot
	// clobber neighbouring vectors in the slab.
	return cost.Vector(a.floats[start : start+dim : start+dim])
}

// NextID returns the ID the next allocated node will receive. Snapshots
// record it so restored optimizers can continue the numbering.
func (a *Arena) NextID() uint32 { return a.nextID }

// ID returns the node's dense arena ID (0 for nodes allocated outside
// an arena). IDs are unique among the nodes of one arena, and — via
// NewArenaFrom — among all nodes reachable by one optimizer.
func (n *Node) ID() uint32 { return n.id }

// DetachInto deep-copies the plan tree rooted at n into individually
// allocated nodes off any arena, preserving node IDs, cost values, and
// sub-plan sharing (one copy per distinct source node, memoized in
// memo — pass the same map when detaching several trees that share
// sub-plans). Use it before letting a reference outlive the arena's
// owning optimizer, so a single retained plan cannot pin whole arena
// chunks.
//
// Nodes whose ID lies below shared are returned as they are, and their
// sub-plans are not visited: the caller vouches that every such node is
// already detached and immutable. An optimizer restored from a snapshot
// passes the snapshot's numbering watermark, below which every node it
// can reach is one of the snapshot's (its own arena numbers from the
// watermark up); pass 0 to copy every node.
func DetachInto(memo map[*Node]*Node, n *Node, shared uint32) *Node {
	if n == nil || n.id < shared {
		return n
	}
	if c, ok := memo[n]; ok {
		return c
	}
	c := new(Node)
	*c = *n
	c.Cost = n.Cost.Clone() // off the arena's float slab too
	memo[n] = c
	c.Left = DetachInto(memo, n.Left, shared)
	c.Right = DetachInto(memo, n.Right, shared)
	return c
}

// RemapInto deep-copies the plan tree rooted at n with every table ID
// rewritten through perm (old table ID → new table ID): scan TableID,
// per-node Tables bitmaps, and interesting-order tags all move to the
// new labeling, while node IDs, cost vectors, cardinalities and
// sub-plan sharing are preserved (one copy per distinct source node,
// memoized in memo — pass the same map across trees that share
// sub-plans). It is the plan-DAG half of rewriting a warm-start
// snapshot onto an isomorphic query (core.Snapshot.Remap); costs are
// valid unchanged because the permutation maps each table onto one
// with identical statistics.
//
// The source must already be detached (snapshot copies): cost vectors
// are shared with the source, which is safe only because detached
// nodes and their vectors are immutable — remapping arena-backed nodes
// directly would let the copy's Cost alias a live arena slab.
func RemapInto(memo map[*Node]*Node, perm []int, n *Node) *Node {
	if n == nil {
		return nil
	}
	if c, ok := memo[n]; ok {
		return c
	}
	c := new(Node)
	*c = *n
	c.Tables = n.Tables.Map(perm)
	if n.IsScan() {
		c.TableID = perm[n.TableID]
	}
	if n.Order != OrderNone {
		c.Order = OrderOn(perm[n.Order.TableID()])
	}
	memo[n] = c
	c.Left = RemapInto(memo, perm, n.Left)
	c.Right = RemapInto(memo, perm, n.Right)
	return c
}
