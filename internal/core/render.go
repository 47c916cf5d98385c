package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/plan"
)

// RenderTable holds the JSON object (plan.Node.AppendJSON) of every
// plan of a snapshot's frontiers, in one slab, built at the first
// Lookup. Those are the plans every optimizer restored from the snapshot
// publishes from (RestoredFrontier): detached, immutable, and the very
// same nodes in every restore, so their bytes are rendered once per
// snapshot, not once per poll (DESIGN.md D20). A table is shared
// read-only by every restore of its snapshot and by a re-export that
// carries the frontiers; it is safe for concurrent use.
type RenderTable struct {
	once sync.Once
	sets [][]*plan.Node

	// Built by once: ids is strictly ascending; plan i is nodes[i],
	// whose bytes are slab[ends[i-1]:ends[i]] (from 0 for the first).
	ids   []uint32
	nodes []*plan.Node
	ends  []uint32
	slab  []byte
}

// NewRenderTable returns the table of the plans of sets, which it holds
// and the caller must not write; a plan may be in several sets. Nothing
// is rendered until the first Lookup.
func NewRenderTable(sets [][]*plan.Node) *RenderTable {
	return &RenderTable{sets: sets}
}

// Lookup returns the bytes plan.Node.AppendJSON appends for p when the
// table holds p itself, the node and not merely its ID: a restore's own
// plans and any other node miss. A plan JSON cannot carry has no entry.
// The bytes are shared and must not be written. A nil table holds
// nothing.
func (t *RenderTable) Lookup(p *plan.Node) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	t.once.Do(t.build)
	i, ok := slices.BinarySearch(t.ids, p.ID())
	if !ok || t.nodes[i] != p {
		return nil, false
	}
	var start uint32
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.slab[start:t.ends[i]:t.ends[i]], true
}

// build renders every plan of the sets once, in ID order.
func (t *RenderTable) build() {
	var nodes []*plan.Node
	for _, set := range t.sets {
		nodes = append(nodes, set...)
	}
	slices.SortFunc(nodes, func(a, b *plan.Node) int { return cmp.Compare(a.ID(), b.ID()) })
	nodes = slices.CompactFunc(nodes, func(a, b *plan.Node) bool { return a.ID() == b.ID() })
	n := len(nodes)
	t.ids, t.ends = make([]uint32, 0, n), make([]uint32, 0, n)
	// A plan of a 4-table query renders to about 140 bytes.
	slab := make([]byte, 0, 160*n)
	kept := nodes[:0]
	for _, p := range nodes {
		var ok bool
		if slab, ok = p.AppendJSON(slab); !ok {
			continue
		}
		kept = append(kept, p)
		t.ids = append(t.ids, p.ID())
		t.ends = append(t.ends, uint32(len(slab)))
	}
	t.nodes, t.slab = kept, slab
}
