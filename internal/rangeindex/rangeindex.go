// Package rangeindex implements the multi-dimensional range index the
// paper's plan sets rely on: plans are indexed by their cost vector and
// by a resolution level, and the optimizer retrieves (or drains) all
// plans whose cost is dominated by a bound vector and whose resolution
// lies in [0, r].
//
// The implementation follows the cell-data-structure sketch of the paper
// (Section 5.3, citing Bentley and Friedman): the cost space is
// partitioned logarithmically into cells, each cell keeps a list of
// entries, and cells are reached by binary search on a sorted directory.
// Range queries enumerate the (sparse) cell directory and filter entries
// exactly, so retrieval of F matching plans costs O(cells + F),
// matching the paper's assumption that retrieval is linear in the
// number of retrieved plans. Insertion into an existing cell is an
// O(log cells) search plus an append; creating a new cell key
// additionally shifts the tail of the sorted directory (an O(cells)
// memmove, cheap in practice because directories hold tens of cells). The logarithmic
// partitioning mirrors the paper's footnote 3: the region a plan
// approximately dominates is obtained by multiplying its cost by a
// constant factor, so log-scaled cells spread plans evenly.
//
// Three directory-level refinements keep queries from touching provably
// irrelevant cells (DESIGN.md D9):
//
//   - cells are kept sorted by their packed key, whose highest bits hold
//     the first dimension's coordinate, so a scan can stop at the first
//     cell whose dimension-0 coordinate exceeds the bound;
//   - each level tracks the per-dimension minimum cell coordinate, so a
//     whole level is skipped when the bound lies below its populated
//     region in any dimension;
//   - each cell and level carries an epoch watermark (the largest
//     insertion epoch it holds), so minimum-epoch queries — the Δ
//     operator of function Fresh — skip cells with no fresh entries.
//
// Entries carry the insertion epoch (the optimizer invocation number),
// which supports the Δ operator: "plans inserted in the current
// invocation" is a range query with a minimum epoch.
//
// The index is concretely typed over *plan.Node payloads: the optimizer
// is its only client, and an `any` payload would box every reference and
// re-assert it on every retrieval in the hottest loop of the system.
package rangeindex

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
)

// maxCoord caps the per-dimension cell coordinate; together with 12 bits
// per dimension it lets up to five dimensions pack into one uint64 key.
const (
	coordBits = 12
	maxCoord  = (1 << coordBits) - 1
	// MaxDims is the largest supported cost-space dimensionality.
	MaxDims = 64 / coordBits
	// oneBits is the bit pattern of the float64 1.0.
	oneBits = 0x3FF << 52
)

// Entry is one indexed plan reference.
type Entry struct {
	// Cost is the plan's cost vector (the index key).
	Cost cost.Vector
	// Resolution is the level the entry is registered for.
	Resolution int
	// Epoch is the optimizer invocation at which the entry was added.
	Epoch uint64
	// Payload is the indexed plan.
	Payload *plan.Node
}

// cell is one directory slot: a cell key plus its entries and the
// largest epoch among them (a conservative watermark: removals never
// lower it).
type cell struct {
	key      uint64
	maxEpoch uint64
	entries  []Entry
}

// level is the per-resolution cell directory, sorted by cell key.
type level struct {
	cells []cell
	// size is the number of entries across the level's cells.
	size int
	// minCoord[d] is the smallest dimension-d cell coordinate of any
	// populated cell (conservative after drains); meaningless while the
	// level is empty.
	minCoord [MaxDims]uint64
	// maxEpoch is the largest insertion epoch the level holds
	// (recomputed from cell watermarks on compaction).
	maxEpoch uint64
}

// Index is a cost×resolution range index. The zero value is not usable;
// construct with New. Not safe for concurrent use (queries reuse a
// per-index scratch buffer, so even read-only access must be
// serialized).
type Index struct {
	dims       int
	cellsPerLg float64 // cells per unit of coord's fixed-point lg: 1/(log2(base)·2^52)
	maxLevel   int
	levels     []level
	size       int
	insertions uint64 // statistics: total inserts ever

	// bcScratch backs boundCoords so steady-state queries allocate
	// nothing. Queries must not recursively query the same index.
	bcScratch [MaxDims]uint64
}

// New creates an index for cost vectors with dims dimensions and
// resolution levels 0..maxLevel. base is the logarithmic cell width: the
// cost ratio a cell spans on average (must be > 1; see coord).
func New(dims, maxLevel int, base float64) (*Index, error) {
	if dims < 1 || dims > MaxDims {
		return nil, fmt.Errorf("rangeindex: dims %d outside [1,%d]", dims, MaxDims)
	}
	if maxLevel < 0 {
		return nil, fmt.Errorf("rangeindex: negative maxLevel %d", maxLevel)
	}
	if base <= 1 {
		return nil, fmt.Errorf("rangeindex: base %g must exceed 1", base)
	}
	return &Index{dims: dims, cellsPerLg: 1 / (math.Log2(base) * (1 << 52)), maxLevel: maxLevel,
		levels: make([]level, maxLevel+1)}, nil
}

// MustNew is New but panics on error.
func MustNew(dims, maxLevel int, base float64) *Index {
	ix, err := New(dims, maxLevel, base)
	if err != nil {
		panic(err)
	}
	return ix
}

// Len returns the number of stored entries.
func (ix *Index) Len() int { return ix.size }

// LenUpTo returns the number of entries stored at levels 0..maxRes: an
// upper bound on what a Query at that resolution can return, for
// callers that size their output once.
func (ix *Index) LenUpTo(maxRes int) int {
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	n := 0
	for res := 0; res <= maxRes; res++ {
		n += ix.levels[res].size
	}
	return n
}

// Insertions returns the total number of Insert calls over the index's
// lifetime (drained entries still count). Used by the amortized-cost
// analysis tests.
func (ix *Index) Insertions() uint64 { return ix.insertions }

// EpochWatermark returns the largest insertion epoch among levels
// 0..maxRes, or 0 when they are empty. It is conservative after drains
// (never too small), so "watermark < e" soundly proves that no entry
// with epoch ≥ e is stored at those levels.
func (ix *Index) EpochWatermark(maxRes int) uint64 {
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	var wm uint64
	for res := 0; res <= maxRes; res++ {
		lv := &ix.levels[res]
		if len(lv.cells) > 0 && lv.maxEpoch > wm {
			wm = lv.maxEpoch
		}
	}
	return wm
}

// coord maps one cost value to its cell coordinate: the number of cell
// widths that fit into lg(1+c), where lg is the piecewise-linear
// logarithm to base 2 that the bits of a float64 spell out — the
// exponent, plus the mantissa read as a fraction. lg is monotone and
// within 0.09 of log2, which is all a cell boundary needs (a retrieval
// tests costs, not coordinates, wherever the two could disagree), and it
// costs a subtraction and a multiplication where the logarithm proper
// cost more than the rest of a query's set-up together. A cell spans a
// cost ratio between base^0.72 and base^1.44, depending on where in its
// octave it lies.
func (ix *Index) coord(c float64) uint64 {
	lg := int64(math.Float64bits(1+c) - oneBits) // lg(1+c)·2^52
	if lg <= 0 {
		return 0
	}
	k := uint64(float64(lg) * ix.cellsPerLg)
	if k > maxCoord {
		k = maxCoord
	}
	return k
}

// cellKey packs the per-dimension coordinates of v into one uint64,
// dimension 0 in the highest bits (so sorting by key sorts primarily by
// the first dimension's coordinate).
func (ix *Index) cellKey(v cost.Vector) uint64 {
	var key uint64
	for d := 0; d < ix.dims; d++ {
		key = key<<coordBits | ix.coord(v[d])
	}
	return key
}

// dim0Shift returns the bit offset of dimension 0 inside a packed key.
func (ix *Index) dim0Shift() uint { return uint((ix.dims - 1) * coordBits) }

// cellMayMatch reports whether the cell with the given key can contain a
// vector dominated by b: every coordinate's lower corner must not exceed
// b's coordinate.
func (ix *Index) cellMayMatch(key uint64, bCoords []uint64) bool {
	for d := ix.dims - 1; d >= 0; d-- {
		if key&maxCoord > bCoords[d] {
			return false
		}
		key >>= coordBits
	}
	return true
}

// boundCoords fills the per-index scratch buffer with b's cell
// coordinates and returns it. The result is valid until the next query.
func (ix *Index) boundCoords(b cost.Vector) []uint64 {
	out := ix.bcScratch[:ix.dims]
	for d := 0; d < ix.dims; d++ {
		if math.IsInf(b[d], 1) {
			out[d] = maxCoord
		} else {
			out[d] = ix.coord(b[d])
		}
	}
	return out
}

// levelMayMatch reports whether any cell of lv can match bounds bc: the
// level must be populated and its minimum coordinate must not exceed the
// bound coordinate in any dimension.
func (ix *Index) levelMayMatch(lv *level, bc []uint64) bool {
	if len(lv.cells) == 0 {
		return false
	}
	for d := 0; d < ix.dims; d++ {
		if bc[d] < lv.minCoord[d] {
			return false
		}
	}
	return true
}

// Insert adds an entry. The cost vector's dimension must match the
// index's; the resolution must be within [0, maxLevel].
func (ix *Index) Insert(e Entry) {
	if e.Cost.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: cost dim %d, index dim %d", e.Cost.Dim(), ix.dims))
	}
	if e.Resolution < 0 || e.Resolution > ix.maxLevel {
		panic(fmt.Sprintf("rangeindex: resolution %d outside [0,%d]", e.Resolution, ix.maxLevel))
	}
	if !e.Cost.IsFinite() {
		panic(fmt.Sprintf("rangeindex: non-finite cost %v", e.Cost))
	}
	key := ix.cellKey(e.Cost)
	lv := &ix.levels[e.Resolution]
	i := sort.Search(len(lv.cells), func(i int) bool { return lv.cells[i].key >= key })
	if i < len(lv.cells) && lv.cells[i].key == key {
		c := &lv.cells[i]
		c.entries = append(c.entries, e)
		if e.Epoch > c.maxEpoch {
			c.maxEpoch = e.Epoch
		}
	} else {
		lv.cells = append(lv.cells, cell{})
		copy(lv.cells[i+1:], lv.cells[i:])
		lv.cells[i] = cell{key: key, maxEpoch: e.Epoch, entries: []Entry{e}}
	}
	// Maintain the per-dimension minimum coordinates and the epoch
	// watermark. A level with exactly one cell (the one just touched)
	// takes its coordinates outright.
	single := len(lv.cells) == 1
	k := key
	for d := ix.dims - 1; d >= 0; d-- {
		c := k & maxCoord
		if single || c < lv.minCoord[d] {
			lv.minCoord[d] = c
		}
		k >>= coordBits
	}
	if e.Epoch > lv.maxEpoch {
		lv.maxEpoch = e.Epoch
	}
	lv.size++
	ix.size++
	ix.insertions++
}

// Query calls fn for every entry whose cost is dominated by b, whose
// resolution is at most maxRes, and whose epoch is at least minEpoch.
// Pass minEpoch 0 to disable epoch filtering. Enumeration order is
// unspecified. If fn returns false the query stops early.
//
// Steady-state queries perform no heap allocations; fn must not query
// or mutate the same index.
//
// This realizes the paper's selection Res^q[0..b, 0..r].
func (ix *Index) Query(b cost.Vector, maxRes int, minEpoch uint64, fn func(Entry) bool) {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	bc := ix.boundCoords(b)
	shift := ix.dim0Shift()
	for res := 0; res <= maxRes; res++ {
		lv := &ix.levels[res]
		if !ix.levelMayMatch(lv, bc) || lv.maxEpoch < minEpoch {
			continue
		}
		for i := range lv.cells {
			c := &lv.cells[i]
			if c.key>>shift > bc[0] {
				break // sorted by key: every later cell exceeds dim 0
			}
			if c.maxEpoch < minEpoch || !ix.cellMayMatch(c.key, bc) {
				continue
			}
			for _, e := range c.entries {
				if e.Epoch >= minEpoch && e.Cost.WithinBounds(b) {
					if !fn(e) {
						return
					}
				}
			}
		}
	}
}

// Collect returns all entries matching the query as a slice.
func (ix *Index) Collect(b cost.Vector, maxRes int, minEpoch uint64) []Entry {
	var out []Entry
	ix.Query(b, maxRes, minEpoch, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Drain removes all entries whose cost is dominated by b and whose
// resolution is at most maxRes, appends them to dst, and returns the
// extended slice. Callers reuse a scratch slice (pass dst[:0]) to keep
// the candidate-retrieval phase of Optimize allocation-free; pass nil
// to allocate. This is the candidate-set retrieval of the paper's
// Optimize phase one, where every retrieved candidate is deleted before
// being re-pruned.
func (ix *Index) Drain(b cost.Vector, maxRes int, dst []Entry) []Entry {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	bc := ix.boundCoords(b)
	shift := ix.dim0Shift()
	start := len(dst)
	for res := 0; res <= maxRes; res++ {
		lv := &ix.levels[res]
		if !ix.levelMayMatch(lv, bc) {
			continue
		}
		dirty, before := false, len(dst)
		for ci := range lv.cells {
			c := &lv.cells[ci]
			if c.key>>shift > bc[0] {
				break
			}
			if len(c.entries) == 0 || !ix.cellMayMatch(c.key, bc) {
				continue
			}
			kept := c.entries[:0]
			for _, e := range c.entries {
				if e.Cost.WithinBounds(b) {
					dst = append(dst, e)
				} else {
					kept = append(kept, e)
				}
			}
			c.entries = kept
			if len(kept) == 0 {
				dirty = true
			}
		}
		lv.size -= len(dst) - before
		if dirty {
			ix.compact(lv)
		}
	}
	ix.size -= len(dst) - start
	return dst
}

// compact removes empty cells from a level's directory (preserving the
// sort order) and retightens the per-dimension minima and the epoch
// watermark from the surviving cells.
func (ix *Index) compact(lv *level) {
	kept := lv.cells[:0]
	for _, c := range lv.cells {
		if len(c.entries) > 0 {
			kept = append(kept, c)
		}
	}
	lv.cells = kept
	lv.maxEpoch = 0
	for i := range kept {
		c := &kept[i]
		if c.maxEpoch > lv.maxEpoch {
			lv.maxEpoch = c.maxEpoch
		}
		k := c.key
		for d := ix.dims - 1; d >= 0; d-- {
			coord := k & maxCoord
			if i == 0 || coord < lv.minCoord[d] {
				lv.minCoord[d] = coord
			}
			k >>= coordBits
		}
	}
}

// All calls fn for every entry regardless of cost, resolution, or epoch.
func (ix *Index) All(fn func(Entry) bool) {
	for l := range ix.levels {
		cells := ix.levels[l].cells
		for i := range cells {
			for _, e := range cells[i].entries {
				if !fn(e) {
					return
				}
			}
		}
	}
}

// Clear removes all entries, keeping the configuration.
func (ix *Index) Clear() {
	for i := range ix.levels {
		ix.levels[i] = level{}
	}
	ix.size = 0
}
