// Package snapcodec serializes core.Snapshot values to a stable,
// versioned, checksummed binary format — the wire half of the
// persistent warm-start store (internal/store). A snapshot encoded by
// one moqod process restores in another (or in the same binary after a
// restart) as long as the format version and the optimizer
// configuration echo match; everything else refuses cleanly.
//
// Format (all integers unsigned varints unless noted, floats as
// IEEE-754 bits in little-endian uint64s):
//
//	magic "MOQS" | version uint16 LE | dim uint8
//	cfgEcho string | nextID | epoch | prevRes | prevBounds (0 or dim floats)
//	ledger: level count, then per level from 0:
//	    flag byte (0 no record, 1 record) | on 1: bounds (dim floats, +Inf legal)
//	statsEpoch | table stats: count, then per table sorted by ID:
//	    id | rows | width | filter | hasIndex byte | rate count + floats
//	edge stats: count, then per edge sorted by (a, b):
//	    a | b | selectivity
//	node table: count, then per node sorted by ID:
//	    ID | tables bitmask | kind byte (0 scan, 1 join)
//	    scan: tableID | scan op | sampleRate     join: op | degree | leftID | rightID
//	    rows | cost (dim floats) | order
//	res plan sets, then cand plan sets: subset count, then per subset
//	    sorted by bitmask: subset | entry count, then per entry:
//	    resolution | epoch | payload node ID
//	pair memo: count, then the ascending packed pairs delta-encoded
//	crc32c uint32 LE over everything above
//
// Plan DAGs flatten to the node table through the arena's dense uint32
// IDs (DESIGN.md D8): IDs are unique across a snapshot and allocation-
// ordered, so children always precede parents and sub-plan sharing is
// an ID reference, not a copy. Entry cost vectors are not encoded —
// they alias their payload's vector in every snapshot (Snapshot's
// detach pass sets e.Cost = e.Payload.Cost), and the decoder restores
// that aliasing.
//
// The CRC32C trailer makes any truncation or single-byte corruption a
// clean decode error; the version header rejects snapshots from a
// different wire format; the cfgEcho (validated again by
// core.NewOptimizerFromSnapshot) rejects snapshots from a different
// optimizer configuration or cost model.
package snapcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// Version is the wire-format version this package encodes and the only
// one it decodes. Bump it on any layout change: a moqod running a
// different binary then refuses persisted snapshots instead of
// restoring garbage.
//
// Version 2 added the statistics-drift section (statsEpoch label plus
// the recorded per-table and per-edge statistics a snapshot was costed
// under). Version 3 added the completed-focus ledger (DESIGN.md D18).
// Records of an earlier version degrade to cold starts.
const Version = 3

var magic = [4]byte{'M', 'O', 'Q', 'S'}

// Sentinel decode errors, distinguishable with errors.Is.
var (
	// ErrTooShort reports input shorter than the fixed header+trailer.
	ErrTooShort = errors.New("snapcodec: input too short")
	// ErrMagic reports input that is not a snapshot record at all.
	ErrMagic = errors.New("snapcodec: bad magic")
	// ErrChecksum reports a CRC32C mismatch (truncation or corruption).
	ErrChecksum = errors.New("snapcodec: checksum mismatch")
	// ErrVersion reports a record from a different wire-format version.
	ErrVersion = errors.New("snapcodec: unsupported format version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is magic + version + dim; trailerLen the CRC32C.
const (
	headerLen  = 4 + 2 + 1
	trailerLen = 4
)

// CompatibleHeader reports whether data begins with this package's
// magic and format version. It is the cheap pre-check the store's
// startup scan applies to each record's snapshot blob, so records
// written by a different wire format are dead on arrival (rejected,
// compactable) instead of being indexed as live and then failing at
// every replay.
func CompatibleHeader(data []byte) bool {
	return len(data) >= headerLen && [4]byte(data[:4]) == magic &&
		binary.LittleEndian.Uint16(data[4:]) == Version
}

// Encode appends the wire form of s to dst and returns the extended
// slice. Encoding is deterministic for a given snapshot (maps are
// walked in sorted order), so byte-equal output means state-equal
// snapshots of the same provenance.
func Encode(dst []byte, s *core.Snapshot) ([]byte, error) {
	if s == nil {
		return dst, fmt.Errorf("snapcodec: nil snapshot")
	}
	w := s.Wire()
	dim, err := wireDim(w)
	if err != nil {
		return dst, err
	}

	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = append(dst, byte(dim))

	dst = AppendString(dst, w.CfgEcho)
	dst = binary.AppendUvarint(dst, uint64(w.NextID))
	dst = binary.AppendUvarint(dst, w.Epoch)
	dst = binary.AppendUvarint(dst, uint64(w.PrevRes))
	dst = binary.AppendUvarint(dst, uint64(len(w.PrevBounds)))
	for _, v := range w.PrevBounds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.Done)))
	for r, d := range w.Done {
		if d == nil {
			dst = append(dst, 0)
			continue
		}
		if d.Dim() != dim {
			return dst[:start], fmt.Errorf("snapcodec: ledger level %d dim %d, space dim %d", r, d.Dim(), dim)
		}
		dst = append(dst, 1)
		for _, v := range d {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}

	// Statistics-drift section: the epoch label and the recorded
	// statistics the snapshot was costed under (already sorted by the
	// snapshot's capture pass, so encoding stays deterministic).
	dst = binary.AppendUvarint(dst, w.StatsEpoch)
	dst = binary.AppendUvarint(dst, uint64(len(w.TableStats)))
	for _, ts := range w.TableStats {
		dst = binary.AppendUvarint(dst, uint64(ts.ID))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ts.Rows))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ts.Width))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ts.Filter))
		if ts.HasIndex {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(ts.Rates)))
		for _, rt := range ts.Rates {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rt))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.EdgeStats)))
	for _, es := range w.EdgeStats {
		dst = binary.AppendUvarint(dst, uint64(es.A))
		dst = binary.AppendUvarint(dst, uint64(es.B))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(es.Sel))
	}

	// Flatten every plan DAG reachable from either plan set into one
	// shared node table (one entry per distinct node, like the
	// snapshot's own detach memo).
	fl := plan.NewFlattener()
	for _, entries := range w.Res {
		for i := range entries {
			fl.Add(entries[i].Payload)
		}
	}
	for _, entries := range w.Cand {
		for i := range entries {
			fl.Add(entries[i].Payload)
		}
	}
	nodes := fl.Nodes()
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	for i := range nodes {
		n := &nodes[i]
		if n.Cost.Dim() != dim {
			return dst[:start], fmt.Errorf("snapcodec: node %d cost dim %d, space dim %d", n.ID, n.Cost.Dim(), dim)
		}
		dst = binary.AppendUvarint(dst, uint64(n.ID))
		dst = binary.AppendUvarint(dst, uint64(n.Tables))
		if n.IsScan() {
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(n.TableID))
			dst = append(dst, byte(n.Scan))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.SampleRate))
		} else {
			dst = append(dst, 1)
			dst = append(dst, byte(n.Join))
			dst = binary.AppendUvarint(dst, uint64(n.Degree))
			dst = binary.AppendUvarint(dst, uint64(n.Left))
			dst = binary.AppendUvarint(dst, uint64(n.Right))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(n.Rows))
		for _, v := range n.Cost {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dst = binary.AppendUvarint(dst, uint64(n.Order))
	}

	for _, set := range []map[tableset.Set][]rangeindex.Entry{w.Res, w.Cand} {
		dst, err = appendPlanSets(dst, set)
		if err != nil {
			return dst[:start], err
		}
	}

	// A snapshot keeps its memo ascending (DESIGN.md D12), so the slice
	// is delta-encoded as it stands. Should that invariant ever break,
	// a sorted copy keeps the deltas from wrapping around.
	pairs := w.Pairs
	if !slices.IsSorted(pairs) {
		pairs = slices.Clone(pairs)
		slices.Sort(pairs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	prev := uint64(0)
	for _, p := range pairs {
		dst = binary.AppendUvarint(dst, p-prev)
		prev = p
	}

	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst, nil
}

// wireDim determines the cost-space dimensionality of the snapshot (0
// for a snapshot with no vectors at all, which round-trips as such).
func wireDim(w core.SnapshotWire) (int, error) {
	dim := len(w.PrevBounds)
	if dim == 0 {
		for _, set := range []map[tableset.Set][]rangeindex.Entry{w.Res, w.Cand} {
			for _, entries := range set {
				for i := range entries {
					dim = entries[i].Payload.Cost.Dim()
					break
				}
				if dim != 0 {
					break
				}
			}
			if dim != 0 {
				break
			}
		}
	}
	if dim > 255 {
		return 0, fmt.Errorf("snapcodec: cost dimension %d exceeds format limit 255", dim)
	}
	return dim, nil
}

// appendPlanSets encodes one plan-set map with subsets sorted by
// bitmask, so encoding does not depend on map iteration order.
func appendPlanSets(dst []byte, sets map[tableset.Set][]rangeindex.Entry) ([]byte, error) {
	subsets := make([]tableset.Set, 0, len(sets))
	for sub := range sets {
		subsets = append(subsets, sub)
	}
	sort.Slice(subsets, func(i, j int) bool { return subsets[i] < subsets[j] })
	dst = binary.AppendUvarint(dst, uint64(len(subsets)))
	for _, sub := range subsets {
		entries := sets[sub]
		dst = binary.AppendUvarint(dst, uint64(sub))
		dst = binary.AppendUvarint(dst, uint64(len(entries)))
		for i := range entries {
			e := &entries[i]
			if e.Payload == nil {
				return dst, fmt.Errorf("snapcodec: entry without payload in subset %v", sub)
			}
			dst = binary.AppendUvarint(dst, uint64(e.Resolution))
			dst = binary.AppendUvarint(dst, e.Epoch)
			dst = binary.AppendUvarint(dst, uint64(e.Payload.ID()))
		}
	}
	return dst, nil
}

// AppendString appends s to dst with its uvarint length prefix, the
// string encoding of every format Reader reads.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Reader is a sticky-error cursor over encoded bytes, and the one
// decoder of everything persisted state is read back from: snapshot
// records here, the store's frames and its checkpoint. The first
// malformed field sets Err; every read after it returns a zero value,
// so a caller checks Err once, after its last read.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.data) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("snapcodec: truncated varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("snapcodec: truncated varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

// Int64 reads an unsigned varint that must fit an int64 (a sequence
// number, a size, an offset).
func (r *Reader) Int64() int64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.fail(fmt.Errorf("snapcodec: %d exceeds int64", v))
		return 0
	}
	return int64(v)
}

// Count reads a length prefix and bounds it by the bytes remaining
// (every counted element occupies at least one byte), so corrupted
// counts cannot trigger allocations larger than the input.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(r.Len()) {
		r.fail(fmt.Errorf("snapcodec: count %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(fmt.Errorf("snapcodec: truncated at offset %d", r.off))
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Float reads an IEEE-754 float64 from its little-endian bits.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail(fmt.Errorf("snapcodec: truncated float at offset %d", r.off))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// Bytes reads the next n bytes. The result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.Len() {
		r.fail(fmt.Errorf("snapcodec: %d bytes exceed remaining input at offset %d", n, r.off))
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Bytes(r.Count())) }

func (r *Reader) vector(dim int) cost.Vector {
	v := make(cost.Vector, dim)
	for i := range v {
		v[i] = r.Float()
	}
	return v
}

// Decode parses one encoded snapshot record. It returns ErrTooShort,
// ErrMagic, ErrVersion or ErrChecksum (wrapped) for the corresponding
// envelope failures, and a descriptive error for any structural
// violation behind a valid checksum; it never panics on arbitrary
// input and never returns a snapshot that violates the plan-DAG
// invariants (a plan.NodeTable re-checks them node by node).
func Decode(data []byte) (*core.Snapshot, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(data))
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if [4]byte(body[:4]) != magic {
		return nil, ErrMagic
	}
	if got := crc32.Checksum(body, castagnoli); got != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != Version {
		return nil, fmt.Errorf("%w: record version %d, binary speaks %d", ErrVersion, v, Version)
	}
	dim := int(body[6])

	r := &Reader{data: body, off: headerLen}
	var w core.SnapshotWire
	w.CfgEcho = r.Str()
	// The cfgEcho's "<dim>x<levels>|" prefix pins the cost dimension
	// and resolution range the restoring optimizer will enforce
	// (rangeindex.Insert panics on violations); a record whose header
	// disagrees with its own echo must fail here, not at restore.
	var echoDim, echoLevels int
	if r.err == nil {
		if _, err := fmt.Sscanf(w.CfgEcho, "%dx%d", &echoDim, &echoLevels); err != nil || echoLevels < 1 {
			r.fail(fmt.Errorf("snapcodec: malformed config echo %q", w.CfgEcho))
		} else if echoDim != dim {
			r.fail(fmt.Errorf("snapcodec: header dim %d, config echo dim %d", dim, echoDim))
		}
	}
	nextID := r.Uvarint()
	if nextID > math.MaxUint32 {
		r.fail(fmt.Errorf("snapcodec: nextID %d exceeds uint32", nextID))
	}
	w.NextID = uint32(nextID)
	w.Epoch = r.Uvarint()
	prevRes := r.Uvarint()
	if prevRes >= uint64(echoLevels) {
		r.fail(fmt.Errorf("snapcodec: prevRes %d outside [0,%d)", prevRes, echoLevels))
	}
	w.PrevRes = int(prevRes)
	switch nb := r.Count(); {
	case nb == 0:
	case nb == dim:
		w.PrevBounds = r.vector(dim)
	default:
		r.fail(fmt.Errorf("snapcodec: prevBounds dim %d, space dim %d", nb, dim))
	}

	// Completed-focus ledger. A restored optimizer skips whole
	// invocations on its word, so the shape is checked as strictly as
	// the plan sets': no level the echo does not have, no bound that is
	// not a bound (`!(v >= 0)` catches NaN; +Inf means unbounded).
	nDone := r.Count()
	if r.err == nil && nDone > echoLevels {
		r.fail(fmt.Errorf("snapcodec: ledger has %d levels, config echo %d", nDone, echoLevels))
	}
	if nDone > 0 && r.err == nil {
		w.Done = make([]cost.Vector, nDone)
	}
	for lv := 0; lv < nDone && r.err == nil; lv++ {
		switch flag := r.Byte(); flag {
		case 0:
		case 1:
			d := r.vector(dim)
			for _, v := range d {
				if r.err == nil && !(v >= 0) {
					r.fail(fmt.Errorf("snapcodec: ledger level %d with invalid bound %g", lv, v))
				}
			}
			w.Done[lv] = d
		default:
			r.fail(fmt.Errorf("snapcodec: ledger level %d with invalid flag byte %d", lv, flag))
		}
	}

	// Statistics-drift section. Values feed relative-change ratios in
	// ClassifyDrift (recorded value in the denominator), so domain
	// violations — non-positive cardinalities, selectivities outside
	// (0, 1], NaNs — are rejected here rather than becoming NaN/Inf
	// classifications later. The `!(v > 0)` form catches NaN.
	w.StatsEpoch = r.Uvarint()
	nStats := r.Count()
	if nStats > 0 {
		w.TableStats = make([]core.TableStat, 0, nStats)
	}
	prevID := -1
	for i := 0; i < nStats && r.err == nil; i++ {
		var ts core.TableStat
		id := r.Uvarint()
		if id >= uint64(tableset.MaxTables) {
			r.fail(fmt.Errorf("snapcodec: table stat id %d outside [0,%d)", id, tableset.MaxTables))
			break
		}
		ts.ID = int(id)
		if ts.ID <= prevID {
			r.fail(fmt.Errorf("snapcodec: table stats not strictly sorted at id %d", ts.ID))
			break
		}
		prevID = ts.ID
		ts.Rows = r.Float()
		ts.Width = r.Float()
		ts.Filter = r.Float()
		if r.err == nil && (!(ts.Rows > 0) || !(ts.Width > 0) || !(ts.Filter > 0) || ts.Filter > 1) {
			r.fail(fmt.Errorf("snapcodec: table stat %d with invalid values (rows %g width %g filter %g)", ts.ID, ts.Rows, ts.Width, ts.Filter))
			break
		}
		switch b := r.Byte(); b {
		case 0:
		case 1:
			ts.HasIndex = true
		default:
			r.fail(fmt.Errorf("snapcodec: table stat %d with invalid index byte %d", ts.ID, b))
		}
		nRates := r.Count()
		if nRates > 0 {
			ts.Rates = make([]float64, 0, nRates)
		}
		for j := 0; j < nRates && r.err == nil; j++ {
			rt := r.Float()
			if r.err == nil && (!(rt > 0) || rt > 1) {
				r.fail(fmt.Errorf("snapcodec: table stat %d with invalid sampling rate %g", ts.ID, rt))
				break
			}
			ts.Rates = append(ts.Rates, rt)
		}
		w.TableStats = append(w.TableStats, ts)
	}
	nEdges := r.Count()
	if nEdges > 0 {
		w.EdgeStats = make([]core.EdgeStat, 0, nEdges)
	}
	for i := 0; i < nEdges && r.err == nil; i++ {
		var es core.EdgeStat
		a, b := r.Uvarint(), r.Uvarint()
		if a >= b || b >= uint64(tableset.MaxTables) {
			r.fail(fmt.Errorf("snapcodec: edge stat endpoints (%d,%d) invalid", a, b))
			break
		}
		es.A, es.B = int(a), int(b)
		es.Sel = r.Float()
		if r.err == nil && (!(es.Sel > 0) || es.Sel > 1) {
			r.fail(fmt.Errorf("snapcodec: edge stat %d-%d with invalid selectivity %g", es.A, es.B, es.Sel))
			break
		}
		w.EdgeStats = append(w.EdgeStats, es)
	}

	// One pass over the node table: each node is parsed into the one
	// reused Flat and added to the table at once, its cost vector a
	// cap-clipped window of one slab per record (appending to one vector
	// can never write into its neighbour). No node encodes in fewer than
	// 16 + 8·dim bytes (a join: eight one-byte fields, rows and cost),
	// so a corrupted count cannot size the slabs past the input.
	nNodes := r.Count()
	if r.err == nil && nNodes > (len(r.data)-r.off)/(16+8*dim) {
		r.fail(fmt.Errorf("snapcodec: %d nodes exceed remaining input", nNodes))
	}
	if r.err != nil {
		return nil, r.err
	}
	nodes := plan.NewNodeTable(nNodes)
	costs := make([]float64, nNodes*dim)
	var f plan.Flat
	for i := 0; i < nNodes; i++ {
		id := r.Uvarint()
		if r.err == nil && id >= nextID {
			r.fail(fmt.Errorf("snapcodec: node ID %d at or above nextID %d", id, nextID))
		}
		f = plan.Flat{ID: uint32(id), Tables: tableset.Set(r.Uvarint())}
		switch kind := r.Byte(); kind {
		case 0:
			f.TableID = int32(r.Uvarint())
			f.Scan = plan.ScanOp(r.Byte())
			f.SampleRate = r.Float()
			if f.Scan > plan.SampleScan {
				r.fail(fmt.Errorf("snapcodec: node %d with unknown scan op %d", f.ID, f.Scan))
			}
		case 1:
			f.Join = plan.JoinOp(r.Byte())
			f.Degree = int32(r.Uvarint())
			f.Left = uint32(r.Uvarint())
			f.Right = uint32(r.Uvarint())
			if f.Join > plan.NestLoopJoin {
				r.fail(fmt.Errorf("snapcodec: node %d with unknown join op %d", f.ID, f.Join))
			}
		default:
			r.fail(fmt.Errorf("snapcodec: node %d with unknown kind %d", f.ID, kind))
		}
		f.Rows = r.Float()
		f.Cost = cost.Vector(costs[i*dim : (i+1)*dim : (i+1)*dim])
		for d := range f.Cost {
			f.Cost[d] = r.Float()
		}
		f.Order = plan.Order(r.Uvarint())
		// The kind byte and the table-set cardinality must agree, or the
		// table's scan/join discrimination would misparse the node.
		if r.err == nil && (f.Tables.Len() == 1) != f.IsScan() {
			r.fail(fmt.Errorf("snapcodec: node %d kind disagrees with its table set", f.ID))
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := nodes.Add(&f); err != nil {
			return nil, err
		}
	}

	var err error
	if w.Res, err = readPlanSets(r, nodes, echoLevels); err != nil {
		return nil, err
	}
	if w.Cand, err = readPlanSets(r, nodes, echoLevels); err != nil {
		return nil, err
	}

	// The pair memo is the bulk of a record's varints, most of them one
	// byte: read them straight off the slice, not through the cursor.
	nPairs := r.Count()
	if r.err != nil {
		return nil, r.err
	}
	w.Pairs = make([]uint64, nPairs)
	data, off, prev := r.data, r.off, uint64(0)
	for i := range w.Pairs {
		if off < len(data) && data[off] < 0x80 {
			prev += uint64(data[off])
			off++
		} else {
			d, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, fmt.Errorf("snapcodec: truncated varint at offset %d", off)
			}
			prev += d
			off += n
		}
		w.Pairs[i] = prev
	}
	r.off = off
	if r.off != len(r.data) {
		return nil, fmt.Errorf("snapcodec: %d trailing bytes after record", len(r.data)-r.off)
	}
	return core.SnapshotFromWire(w)
}

// readPlanSets decodes one plan-set map, resolving entry payloads
// through the node table and restoring the cost aliasing invariant
// (Entry.Cost == Entry.Payload.Cost).
func readPlanSets(r *Reader, nodes *plan.NodeTable, levels int) (map[tableset.Set][]rangeindex.Entry, error) {
	nSets := r.Count()
	sets := make(map[tableset.Set][]rangeindex.Entry, nSets)
	for i := 0; i < nSets && r.err == nil; i++ {
		sub := tableset.Set(r.Uvarint())
		if sub.IsEmpty() {
			r.fail(fmt.Errorf("snapcodec: empty plan-set subset"))
			break
		}
		if _, dup := sets[sub]; dup {
			r.fail(fmt.Errorf("snapcodec: duplicate plan-set subset %v", sub))
			break
		}
		nEntries := r.Count()
		entries := make([]rangeindex.Entry, 0, nEntries)
		for j := 0; j < nEntries && r.err == nil; j++ {
			res := r.Uvarint()
			if res >= uint64(levels) {
				r.fail(fmt.Errorf("snapcodec: resolution %d outside [0,%d)", res, levels))
				break
			}
			epoch := r.Uvarint()
			id := uint32(r.Uvarint())
			n := nodes.Lookup(id)
			if n == nil {
				r.fail(fmt.Errorf("snapcodec: entry references missing node %d", id))
				break
			}
			if n.Tables != sub {
				r.fail(fmt.Errorf("snapcodec: node %d tables %v stored under subset %v", id, n.Tables, sub))
				break
			}
			entries = append(entries, rangeindex.Entry{
				Cost:       n.Cost,
				Resolution: int(res),
				Epoch:      epoch,
				Payload:    n,
			})
		}
		sets[sub] = entries
	}
	return sets, r.err
}
