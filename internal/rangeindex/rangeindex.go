// Package rangeindex implements the multi-dimensional range index the
// paper's plan sets rely on: plans are indexed by their cost vector and
// by a resolution level, and the optimizer retrieves (or drains) all
// plans whose cost is dominated by a bound vector and whose resolution
// lies in [0, r].
//
// The implementation follows the cell-data-structure sketch of the paper
// (Section 5.3, citing Bentley and Friedman): the cost space is
// partitioned logarithmically into cells, each cell keeps a list of
// entries, and each resolution level keeps its populated cells in a
// directory sorted by cell key. The logarithmic partitioning mirrors the
// paper's footnote 3: the region a plan approximately dominates is
// obtained by multiplying its cost by a constant factor, so log-scaled
// cells spread plans evenly.
//
// A retrieval walks a level's directory in key order up to the first
// cell beyond the bound in dimension 0. One subtraction on the packed key
// places a cell (locate): beyond the bound in some dimension, and
// passed over; within the bound's own cell in every dimension and
// sharing a coordinate with it, and its entries are tested; or strictly
// inside, and its entries are taken untested. Retrieving F plans
// therefore costs O(F), plus the entries of boundary cells that fail
// their test, plus about a nanosecond per directory cell passed over.
// With cells about as wide as the question asked of them — the
// optimizer's α_r·c(p) boxes, see DESIGN.md D4 — the tested entries stay
// within a small factor of the matched ones (Retrievals reports both),
// which is what the paper's assumption that retrieval is linear in the
// number of retrieved plans needs; the directory term is what is left of
// O(cells), and skipping its runs was measured not to pay (DESIGN.md
// D9). Insertion into an existing cell is an O(log cells) search plus an
// append; creating a new cell additionally shifts the tail of the sorted
// directory. Freeze cuts an entry list in enumeration order into cells
// in one pass, without copying an entry, and any number of empty indexes
// adopt the resulting Image by reference, each copying a level's
// directory only before it first writes to it.
//
// Enumeration order is a contract, because the optimizer's tie-breaks
// and insertion order — and so the plan sets it converges to — follow
// it: Query, QueryLevel, Dominance, Drain and All enumerate ascending
// resolution level, within a level ascending cell key, within a cell
// insertion order.
//
// Directory-level refinements (DESIGN.md D9):
//
//   - cells are kept sorted by their packed key, whose highest bits hold
//     the first dimension's coordinate, so a walk stops at the first
//     cell whose dimension-0 coordinate exceeds the bound;
//   - each level tracks the per-dimension minimum cell coordinate, so a
//     whole level is skipped when the bound lies below its populated
//     region in any dimension;
//   - each cell and level carries an epoch watermark (the largest
//     insertion epoch it holds), so minimum-epoch queries — the Δ
//     operator of function Fresh — skip cells with no fresh entries;
//   - each cell carries a mask of its payloads' interesting orders, so
//     the dominance probe for an ordered plan skips cells that hold no
//     plan of its order.
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
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/plan"
)

// A cell key packs one coordinate per dimension into 12-bit fields of a
// uint64, dimension 0 highest, so sorting by key sorts by the first
// dimension's coordinate first. A coordinate uses the low 11 bits of its
// field; the twelfth, the field's guard bit, is clear in every key, which
// lets one subtraction compare all fields of two keys at once (fieldsLE).
const (
	coordBits = 12
	guardBit  = 1 << (coordBits - 1)
	// maxCoord caps a cell's coordinate.
	maxCoord = guardBit - 2
	// unboundedCoord is the coordinate of an infinite bound: above every
	// cell's, so no cell is on such a bound's boundary.
	unboundedCoord = guardBit - 1
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

// cell is one directory slot: a cell key plus its entries, the largest
// epoch among them and the orders they carry (both conservative:
// removals never lower the watermark or clear a bit).
type cell struct {
	key      uint64
	maxEpoch uint64
	// orders has bit orderBit(o) set for the interesting order o of
	// every payload the cell has held. Orders alias modulo 64, so a set
	// bit means "maybe"; a clear one proves that no entry has order o
	// (Dominance).
	orders  uint64
	entries []Entry
	// borrowed marks entries as a window of a frozen list (Image):
	// shared, read-only, with the list's owner and every index that
	// adopted its image. A borrowed window is clipped to its length, so
	// an append copies it; Drain copies it before compacting it.
	borrowed bool
}

// level is the per-resolution cell directory, sorted by cell key.
type level struct {
	cells []cell
	// size is the number of entries across the level's cells.
	size int
	// minKey packs, per dimension, the smallest coordinate of any
	// populated cell (conservative after drains); meaningless while the
	// level is empty.
	minKey uint64
	// maxEpoch is the largest insertion epoch the level holds
	// (recomputed from cell watermarks on compaction).
	maxEpoch uint64
	// frozen marks cells as an Image's directory: shared, read-only,
	// with the image and every index that adopted it. thaw copies it
	// before the first write.
	frozen bool
}

// Index is a cost×resolution range index. The zero value is not usable;
// construct with New. Not safe for concurrent use: retrievals keep the
// ledger Retrievals reports, so even read-only access must be
// serialized. Indexes adopting one Image may be used concurrently with
// each other.
type Index struct {
	dims       int
	cellsPerLg float64 // cells per unit of coord's fixed-point lg: 1/(log2(base)·2^52)
	guards     uint64  // the guard bits of the dims fields a key uses
	dim0Guard  uint64  // the highest of them
	maxLevel   int
	levels     []level
	size       int
	img        *Image // the adopted image, until the first write (Frozen)

	// tested and matched are the retrieval ledger: entries a Query,
	// Dominance or Drain compared against its bound, and entries it
	// retrieved. Plain ints — an index is single-threaded.
	tested, matched int
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
	ix := &Index{dims: dims, cellsPerLg: 1 / (math.Log2(base) * (1 << 52)),
		maxLevel: maxLevel, levels: make([]level, maxLevel+1)}
	for d := 0; d < dims; d++ {
		ix.guards = ix.guards<<coordBits | guardBit
	}
	ix.dim0Guard = guardBit << ((dims - 1) * coordBits)
	return ix, nil
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

// Retrievals returns the index's retrieval ledger: how many entries its
// Query, Dominance and Drain calls have compared against their bound,
// and how many entries they retrieved (Dominance counts only entries of
// an order that can cover its plan). tested ÷ matched is the index's
// distance from the paper's O(F) retrieval assumption.
func (ix *Index) Retrievals() (tested, matched int) { return ix.tested, ix.matched }

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

// cellKey packs the per-dimension coordinates of v into one key.
func (ix *Index) cellKey(v cost.Vector) uint64 {
	var key uint64
	for d := 0; d < ix.dims; d++ {
		key = key<<coordBits | ix.coord(v[d])
	}
	return key
}

// boundKey packs the cell coordinates of the bound b like a cell key,
// with unboundedCoord where b is infinite.
func (ix *Index) boundKey(b cost.Vector) uint64 {
	var key uint64
	for d := 0; d < ix.dims; d++ {
		c := uint64(unboundedCoord)
		if !math.IsInf(b[d], 1) {
			c = ix.coord(b[d])
		}
		key = key<<coordBits | c
	}
	return key
}

// fieldsLE returns the guard bits of the fields in which a's coordinate
// is at most b's. With b's guard bits set and a's clear, no field of the
// difference borrows from its neighbour, and a field keeps its guard bit
// exactly when nothing larger than b's coordinate was taken from it.
func (ix *Index) fieldsLE(a, b uint64) uint64 {
	return ((b | ix.guards) - a) & ix.guards
}

// within reports c ⪯ b for two vectors of the index's dimension (Insert
// and the retrievals have checked both).
func within(c, b cost.Vector) bool {
	b = b[:len(c)]
	for d, x := range c {
		if x > b[d] {
			return false
		}
	}
	return true
}

// position is where a cell lies relative to a retrieval's bound.
type position int

const (
	// past: beyond the bound in dimension 0, and so is every later cell
	// of the sorted directory.
	past position = iota
	// outside: beyond the bound in another dimension.
	outside
	// boundary: within the bound's own cell in every dimension and sharing
	// a coordinate with it, so its entries need testing.
	boundary
	// inside: strictly below the bound's own cell in every dimension.
	// Coordinates are monotone in the cost, so all of its entries are
	// within the bound and none needs testing.
	inside
)

// locate places the cell with the given key relative to the bound key bk.
func (ix *Index) locate(key, bk uint64) position {
	switch over := ix.fieldsLE(key, bk) ^ ix.guards; {
	case over >= ix.dim0Guard:
		return past
	case over != 0:
		return outside
	case ix.fieldsLE(bk, key) != 0:
		return boundary
	}
	return inside
}

// levelMayMatch reports whether any cell of lv can lie within the bound
// key bk: the level must be populated and its minimum coordinate must
// not exceed the bound's in any dimension.
func (ix *Index) levelMayMatch(lv *level, bk uint64) bool {
	return len(lv.cells) > 0 && ix.fieldsLE(lv.minKey, bk) == ix.guards
}

// check panics unless e is an entry the index can hold: the cost
// vector's dimension must match the index's, the resolution must be
// within [0, maxLevel], and the cost must be finite.
func (ix *Index) check(e *Entry) {
	if e.Cost.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: cost dim %d, index dim %d", e.Cost.Dim(), ix.dims))
	}
	if e.Resolution < 0 || e.Resolution > ix.maxLevel {
		panic(fmt.Sprintf("rangeindex: resolution %d outside [0,%d]", e.Resolution, ix.maxLevel))
	}
	if !e.Cost.IsFinite() {
		panic(fmt.Sprintf("rangeindex: non-finite cost %v", e.Cost))
	}
}

// lowerMin lowers lv's per-dimension minimum coordinates to key's.
func (ix *Index) lowerMin(lv *level, key uint64) {
	for d := 0; d < ix.dims; d++ {
		mask := uint64(guardBit-1) << (d * coordBits)
		if key&mask < lv.minKey&mask {
			lv.minKey = lv.minKey&^mask | key&mask
		}
	}
}

// Insert adds an entry. The cost vector's dimension must match the
// index's; the resolution must be within [0, maxLevel].
func (ix *Index) Insert(e Entry) {
	ix.check(&e)
	key := ix.cellKey(e.Cost)
	lv := &ix.levels[e.Resolution]
	ix.thaw(lv)
	i := sort.Search(len(lv.cells), func(i int) bool { return lv.cells[i].key >= key })
	if i < len(lv.cells) && lv.cells[i].key == key {
		c := &lv.cells[i]
		c.entries, c.borrowed = append(c.entries, e), false
		c.orders |= payloadOrderBit(e.Payload)
		if e.Epoch > c.maxEpoch {
			c.maxEpoch = e.Epoch
		}
	} else {
		lv.cells = append(lv.cells, cell{})
		copy(lv.cells[i+1:], lv.cells[i:])
		lv.cells[i] = cell{key: key, maxEpoch: e.Epoch, orders: payloadOrderBit(e.Payload), entries: []Entry{e}}
	}
	// Maintain the per-dimension minimum coordinates and the epoch
	// watermark. A level with exactly one cell (the one just touched)
	// takes its coordinates outright.
	if len(lv.cells) == 1 {
		lv.minKey = key
	} else {
		ix.lowerMin(lv, key)
	}
	if e.Epoch > lv.maxEpoch {
		lv.maxEpoch = e.Epoch
	}
	lv.size++
	ix.size++
}

// Image is the frozen cell directory of one entry list in enumeration
// order: per level, the cells as windows of the list, their keys, the
// level's minimum coordinates and its epoch watermarks. It is immutable
// once built, so one image may be adopted by any number of indexes of
// its geometry, on any goroutines (Adopt). It holds the list, which
// nothing may write once frozen.
type Image struct {
	dims       int
	cellsPerLg float64
	entries    []Entry
	levels     []level
}

// Entries returns the list the image was frozen from. It is shared: the
// caller must not write it.
func (img *Image) Entries() []Entry { return img.entries }

// Freeze builds the image of a list at the index's geometry, checking
// every entry as Insert would, in one pass that cuts the list into
// cells. It returns nil for a list that is not in enumeration order. The
// index itself is neither read nor changed beyond its geometry.
func (ix *Index) Freeze(entries []Entry) *Image {
	// At the optimizer's cell width a cell holds two to three entries;
	// room for one per two spares most lists a regrowth.
	cells := make([]cell, 0, len(entries)/2+1)
	start, res, key := 0, 0, uint64(0) // the open cell: its first entry, its level, its key
	for i := range entries {
		e := &entries[i]
		ix.check(e)
		k := ix.cellKey(e.Cost)
		if i == 0 || e.Resolution != res || k != key {
			if e.Resolution < res || e.Resolution == res && k < key {
				return nil
			}
			start, res, key = i, e.Resolution, k
			cells = append(cells, cell{key: k, borrowed: true})
		}
		c := &cells[len(cells)-1]
		c.entries = entries[start : i+1 : i+1]
		c.maxEpoch = max(c.maxEpoch, e.Epoch)
		c.orders |= payloadOrderBit(e.Payload)
	}
	img := &Image{dims: ix.dims, cellsPerLg: ix.cellsPerLg, entries: entries, levels: make([]level, len(ix.levels))}
	// One array holds the directories of all levels; thaw copies a
	// level's out of it before the level is written.
	for from := 0; from < len(cells); {
		res, to := cells[from].entries[0].Resolution, from+1
		for to < len(cells) && cells[to].entries[0].Resolution == res {
			to++
		}
		lv := &img.levels[res]
		lv.cells, lv.frozen = cells[from:to:to], true
		ix.tighten(lv)
		for i := range lv.cells {
			lv.size += len(lv.cells[i].entries)
		}
		from = to
	}
	return img
}

// Adopt makes an empty index hold the entries of an image built at its
// geometry, by reference, and leaves it as inserting the image's list
// entry by entry would: the levels' directories are the image's, and
// the index copies a level's directory before the first Insert or Drain
// that writes to it, as its cells copy the list's windows. It panics
// when the index is not empty or its geometry is not the image's.
func (ix *Index) Adopt(img *Image) {
	if ix.size != 0 {
		panic("rangeindex: Adopt into a populated index")
	}
	if img.dims != ix.dims || img.cellsPerLg != ix.cellsPerLg || len(img.levels) != len(ix.levels) {
		panic("rangeindex: Adopt of an image of another geometry")
	}
	copy(ix.levels, img.levels)
	ix.size = len(img.entries)
	ix.img = img
}

// Frozen returns the image the index adopted, while no Insert or Drain
// has changed the index since; nil otherwise. The index then enumerates
// exactly the image's list.
func (ix *Index) Frozen() *Image { return ix.img }

// thaw gives lv a directory of its own before a write to it, when its
// directory is an image's. The cells keep borrowing their windows of the
// image's list. Any write ends the index's claim to the image.
func (ix *Index) thaw(lv *level) {
	ix.img = nil
	if lv.frozen {
		lv.cells = slices.Clone(lv.cells)
		lv.frozen = false
	}
}

// Query calls fn for every entry whose cost is dominated by b, whose
// resolution is at most maxRes, and whose epoch is at least minEpoch, in
// enumeration order. Pass minEpoch 0 to disable epoch filtering. If fn
// returns false the query stops early.
//
// Queries perform no heap allocations; fn must not mutate the index.
//
// This realizes the paper's selection Res^q[0..b, 0..r].
func (ix *Index) Query(b cost.Vector, maxRes int, minEpoch uint64, fn func(Entry) bool) {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	bk := ix.boundKey(b)
	for res := 0; res <= maxRes; res++ {
		if !ix.queryLevel(&ix.levels[res], b, bk, minEpoch, fn) {
			return
		}
	}
}

// QueryLevel is Query restricted to the entries registered for exactly
// resolution res (none when res lies outside [0, maxLevel]): the plans a
// focus at resolution res sees that one at res-1 does not.
func (ix *Index) QueryLevel(b cost.Vector, res int, minEpoch uint64, fn func(Entry) bool) {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if res < 0 || res > ix.maxLevel {
		return
	}
	ix.queryLevel(&ix.levels[res], b, ix.boundKey(b), minEpoch, fn)
}

// queryLevel is one level's part of a retrieval with bound b, bound key
// bk and minimum epoch minEpoch. It reports false when fn stopped it.
func (ix *Index) queryLevel(lv *level, b cost.Vector, bk, minEpoch uint64, fn func(Entry) bool) bool {
	if !ix.levelMayMatch(lv, bk) || lv.maxEpoch < minEpoch {
		return true
	}
	for i := range lv.cells {
		c := &lv.cells[i]
		pos := ix.locate(c.key, bk)
		if pos == past {
			break
		}
		if pos == outside || c.maxEpoch < minEpoch {
			continue
		}
		for j := range c.entries {
			e := &c.entries[j]
			if e.Epoch < minEpoch {
				continue
			}
			if pos == boundary {
				ix.tested++
				if !within(e.Cost, b) {
					continue
				}
			}
			ix.matched++
			if !fn(*e) {
				return false
			}
		}
	}
	return true
}

// orderBit returns the bit of a cell's order mask that stands for order o.
func orderBit(o plan.Order) uint64 { return 1 << (uint64(o) & 63) }

// payloadOrderBit is orderBit of p's order, or no bit for a nil payload.
func payloadOrderBit(p *plan.Node) uint64 {
	if p == nil {
		return 0
	}
	return orderBit(p.Order)
}

// Dominance is the question Prune asks of a result set (DESIGN.md D5,
// D9): does a plan registered for a level ≤ maxRes, with cost in the box
// {c : c ⪯ b}, cover plan p, and does one make p redundant? An entry
// covers p when its order covers p's (any entry does when orderAware is
// false); a covering entry makes p redundant when it also produces no
// more rows than p and its cost dominates p's. The probe walks the box
// in enumeration order and returns at the first redundant-making entry
// (exact), or at the first covering one when stopAtCover is set, so its
// verdict is the one a Query visitor asking the same of every entry
// would reach. visited counts the covering entries it examined.
//
// An ordered p passes over cells whose order mask lacks its order and
// entries of another order unread, and the retrieval ledger counts
// neither. Every payload in the box must be non-nil. Like Query, the
// probe allocates nothing.
func (ix *Index) Dominance(b cost.Vector, maxRes int, p *plan.Node, orderAware, stopAtCover bool) (exact *plan.Node, covered bool, visited int) {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	bk := ix.boundKey(b)
	// Only entries of p's own order cover an ordered p.
	want, selective := p.Order, orderAware && p.Order != plan.OrderNone
	bit := orderBit(want)
	for res := 0; res <= maxRes; res++ {
		lv := &ix.levels[res]
		if !ix.levelMayMatch(lv, bk) {
			continue
		}
		for i := range lv.cells {
			c := &lv.cells[i]
			pos := ix.locate(c.key, bk)
			if pos == past {
				break
			}
			if pos == outside || selective && c.orders&bit == 0 {
				continue
			}
			for j := range c.entries {
				e := &c.entries[j]
				q := e.Payload
				if selective && q.Order != want {
					continue
				}
				if pos == boundary {
					ix.tested++
					if !within(e.Cost, b) {
						continue
					}
				}
				ix.matched++
				visited++
				if stopAtCover {
					return nil, true, visited
				}
				covered = true
				if !(q.Rows > p.Rows) && within(e.Cost, p.Cost) {
					return q, true, visited
				}
			}
		}
	}
	return nil, covered, visited
}

// Drain removes all entries whose cost is dominated by b and whose
// resolution is at most maxRes, appends them to dst in enumeration
// order, and returns the extended slice. Callers reuse a scratch slice
// (pass dst[:0]) to keep the candidate-retrieval phase of Optimize
// allocation-free; pass nil to allocate. This is the candidate-set
// retrieval of the paper's Optimize phase one, where every retrieved
// candidate is deleted before being re-pruned.
func (ix *Index) Drain(b cost.Vector, maxRes int, dst []Entry) []Entry {
	if b.Dim() != ix.dims {
		panic(fmt.Sprintf("rangeindex: bound dim %d, index dim %d", b.Dim(), ix.dims))
	}
	if maxRes > ix.maxLevel {
		maxRes = ix.maxLevel
	}
	bk := ix.boundKey(b)
	start := len(dst)
	for res := 0; res <= maxRes; res++ {
		lv := &ix.levels[res]
		if !ix.levelMayMatch(lv, bk) {
			continue
		}
		dirty, before := false, len(dst)
		for i := range lv.cells {
			pos := ix.locate(lv.cells[i].key, bk)
			if pos == past {
				break
			}
			if pos == outside {
				continue
			}
			if pos == inside {
				ix.thaw(lv)
				c := &lv.cells[i]
				dst = append(dst, c.entries...)
				c.entries = nil
			} else {
				dst = ix.drainCell(lv, i, b, dst)
			}
			if len(lv.cells[i].entries) == 0 {
				dirty = true
			}
		}
		lv.size -= len(dst) - before
		if dirty {
			ix.compact(lv)
		}
	}
	ix.size -= len(dst) - start
	ix.matched += len(dst) - start
	return dst
}

// drainCell moves the entries of cell i of lv that are within b to dst
// and keeps the others, in their order. A cell that drains nothing is
// not written. Otherwise the level's directory is thawed first, and a
// cell that borrows its entries is copied before the first entry moves
// down: the list it is a window of is not this index's to write.
func (ix *Index) drainCell(lv *level, i int, b cost.Vector, dst []Entry) []Entry {
	es := lv.cells[i].entries
	ix.tested += len(es)
	first := 0
	for first < len(es) && !within(es[first].Cost, b) {
		first++
	}
	if first == len(es) {
		return dst
	}
	ix.thaw(lv)
	c := &lv.cells[i]
	kept := first
	for j := first; j < len(es); j++ {
		if within(es[j].Cost, b) {
			dst = append(dst, es[j])
			continue
		}
		if kept != j {
			if c.borrowed {
				es = append([]Entry(nil), es...)
				c.borrowed = false
			}
			es[kept] = es[j]
		}
		kept++
	}
	if c.borrowed {
		// Still a window of the loaded list: stay clipped, so that an
		// append copies.
		es = es[:kept:kept]
	}
	c.entries = es[:kept]
	return dst
}

// compact removes empty cells from a level's directory (preserving the
// sort order) and retightens the level's summary of them.
func (ix *Index) compact(lv *level) {
	kept := lv.cells[:0]
	for _, c := range lv.cells {
		if len(c.entries) > 0 {
			kept = append(kept, c)
		}
	}
	lv.cells = kept
	ix.tighten(lv)
}

// tighten recomputes a level's per-dimension minima and epoch watermark
// from its cells.
func (ix *Index) tighten(lv *level) {
	lv.maxEpoch = 0
	for i := range lv.cells {
		c := &lv.cells[i]
		if c.maxEpoch > lv.maxEpoch {
			lv.maxEpoch = c.maxEpoch
		}
		if i == 0 {
			lv.minKey = c.key
		} else {
			ix.lowerMin(lv, c.key)
		}
	}
}

// All calls fn for every entry regardless of cost, resolution, or epoch,
// in enumeration order.
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
