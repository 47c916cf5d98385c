// Package store persists warm-start snapshots across process restarts:
// a disk-backed, append-only companion to the service's in-memory plan
// cache (service.PlanCache). Records — (exact fingerprint, canonical
// digest, structural fingerprint, canonical permutation,
// snapcodec-encoded snapshot) — are appended to numbered segment files
// by a background writer, so persistence never blocks the refinement or
// session-creation paths. The store keeps an index of every live
// record's keys and location and nothing of its snapshot. Close leaves
// that index beside the log as a checkpoint (checkpoint.go); Open
// adopts it for the prefix of segments that still matches and scans
// only what follows — after a clean shutdown, nothing — validating each
// frame and truncating a segment at its first corrupt one (a crash
// mid-append, a torn page). Without a usable checkpoint the scan reads
// the whole log (DESIGN.md D22). The store is the plan cache's cold
// tier (DESIGN.md D19): Find answers a cache tier's key — a fingerprint,
// or the canonical or structural digest of a class, whose answer is the
// class's most recently written live record — from the index without
// touching the disk, and Load reads that record's still-encoded snapshot
// back, verified, when something first uses it: before the node reports
// ready for what the checkpoint's hot set names, on a cache miss for
// the rest.
// Records whose configuration echo does not match the restoring service
// are dead on arrival: config drift degrades to a cold start, never to
// a wrong restore. Statistics drift is deliberately softer: each frame
// also carries the statistics-epoch label its snapshot was costed
// under, and records from older epochs still load — the service
// re-costs them lazily through the cache's structural tier instead of
// discarding warm state that is merely stale (DESIGN.md D15).
//
// Re-persisting a fingerprint supersedes its previous record; the
// superseded bytes are dead. When dead bytes exceed
// Options.CompactFraction of the store, the writer compacts: live
// records are copied in index order into a fresh segment and the old
// segments are deleted. The active segment also rolls over at
// Options.MaxSegmentBytes, bounding the damage radius of any single
// truncation.
//
// Two fault-tolerance mechanisms guard the service against bad disks
// and bad records (DESIGN.md D14):
//
//   - Quarantine writes a tombstone frame superseding a fingerprint's
//     record, so a persisted snapshot that turned out to be poisonous
//     (its restore or first post-restore step panicked) is dead on the
//     next scan instead of crash-looping every restart.
//   - Degraded mode: all I/O goes through an injectable filesystem
//     seam (internal/faultfs, Options.FS); after
//     Options.FailThreshold consecutive write-path failures the store
//     stops touching the disk — Puts are counted and dropped, the
//     in-memory cache above is unaffected — and re-probes with
//     jittered exponential backoff, resuming persistence on the first
//     probe that reaches stable storage.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/snapcodec"
)

// Options configures a Store; Dir and CfgEcho are required.
type Options struct {
	// Dir is the store's root directory, created if missing. One store
	// (one moqod process) owns a directory at a time; the store does
	// no cross-process locking.
	Dir string

	// CfgEcho is the restoring service's configuration fingerprint
	// (core.ConfigFingerprint of its optimizer config). Scanned records
	// carrying a different echo are counted as rejected and treated as
	// dead bytes.
	CfgEcho string

	// MaxSegmentBytes rolls the active segment once it exceeds this
	// size; defaults to 64 MiB.
	MaxSegmentBytes int64

	// CompactFraction triggers compaction when dead bytes exceed this
	// fraction of total record bytes (and MinCompactBytes); defaults
	// to 0.5.
	CompactFraction float64

	// MinCompactBytes is the dead-byte floor below which compaction is
	// never worth the rewrite; defaults to 1 MiB.
	MinCompactBytes int64

	// QueueDepth bounds the background writer's backlog; a Put against
	// a full queue is dropped (and counted) rather than blocking the
	// caller — persistence is best-effort cache warming. Defaults to
	// 256.
	QueueDepth int

	// FS is the filesystem all store I/O goes through; nil defaults to
	// the real one (faultfs.OS). Tests inject a faultfs.Injector to
	// script disk failures.
	FS faultfs.FS

	// FailThreshold is the number of consecutive write-path failures
	// (open, write, fsync) after which the store enters degraded mode
	// and stops touching the disk; defaults to 3.
	FailThreshold int

	// ProbeInterval is the initial delay before a degraded store
	// re-probes the disk; each failed probe doubles it (with ±50%
	// jitter) up to ProbeMaxInterval. Defaults to 1s and 30s.
	ProbeInterval    time.Duration
	ProbeMaxInterval time.Duration

	// Events receives structured lifecycle events (open, replay,
	// degraded-mode transitions); nil disables (every emission is
	// nil-safe).
	Events *eventlog.Log
}

func (o *Options) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("store: Options.Dir is required")
	}
	if o.CfgEcho == "" {
		return fmt.Errorf("store: Options.CfgEcho is required")
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.5
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 1 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeMaxInterval <= 0 {
		o.ProbeMaxInterval = 30 * time.Second
	}
	return nil
}

// Record is one persisted snapshot with its cache keys: everything a
// service needs to re-admit the snapshot into every tier of its plan
// cache. Find and Walk yield records with the keys only (Snap nil,
// nothing read); Replay yields them whole.
type Record struct {
	// FP is the exact query fingerprint (the exact cache-tier key and
	// the store's dedup key).
	FP string
	// CanonFP is the canonical digest (the isomorphism-tier key).
	CanonFP string
	// StructFP is the statistics-free structural fingerprint (the
	// drift-tier key: it still matches after the source query's
	// statistics change).
	StructFP string
	// Perm is the source query's table→canonical-position permutation,
	// needed to rewrite the snapshot for isomorphic queries. The store's
	// index shares the slice with what Put got and what it hands out;
	// nobody writes to it.
	Perm []int
	// StatsEpoch is the statistics-epoch label the snapshot was costed
	// under, duplicated out of the blob so the startup scan can count
	// stale records without decoding plan state.
	StatsEpoch uint64
	// Snap is the snapshot itself.
	Snap *core.Snapshot
}

// Stats are the store's counters and gauges.
type Stats struct {
	// Segments is the number of segment files on disk.
	Segments int
	// LiveRecords is the number of distinct fingerprints with a live
	// record.
	LiveRecords int
	// LiveBytes and DeadBytes split the on-disk record bytes into
	// restorable records and superseded/rejected/corrupt ones.
	LiveBytes, DeadBytes int64
	// Persisted counts records appended since open.
	Persisted uint64
	// Loaded counts the records adopted from the checkpoint plus the
	// frames the startup scan accepted, superseded ones included
	// (LiveRecords is the number of records).
	Loaded uint64
	// AdoptedSegments and AdoptedRecords are what Open took over from
	// the checkpoint instead of scanning: the segments of the prefix
	// that still matched it, and the live records located in them.
	AdoptedSegments, AdoptedRecords int
	// ScanBytes and ScanTotal are what the startup scan read from the
	// segments — 0 after a clean shutdown, when the checkpoint covers
	// the whole log — and how long Open took from the directory listing
	// to the last frame, checkpoint included.
	ScanBytes int64
	ScanTotal time.Duration `json:"ScanTotalNs"`
	// Rejected counts scanned records refused for a configuration-echo
	// mismatch (a different binary build or optimizer config).
	Rejected uint64
	// StaleEpoch counts live records whose statistics-epoch label is
	// below the newest label the store has seen: they replay normally
	// (the service re-costs them on demand), this is purely a gauge of
	// how much of the warm state predates the current statistics.
	StaleEpoch int
	// MaxStatsEpoch is the newest statistics-epoch label seen across
	// scanned and appended records.
	MaxStatsEpoch uint64
	// Corrupted counts scan truncations (bad checksum or torn record),
	// segments the scan could not read to their end, and live records
	// that turned out unusable when loaded: a frame that failed Load's
	// checks or a snapshot that failed to decode (at Replay, or when the
	// service first read it).
	Corrupted uint64
	// Dropped counts Puts shed because the writer queue was full.
	Dropped uint64
	// WriteErrors counts failed appends (the record is lost; the store
	// keeps serving).
	WriteErrors uint64
	// Compactions counts segment compactions since open.
	Compactions uint64
	// Flushes counts explicit flush acks served (Flush/Close), and
	// FlushTotal is the cumulative wall time of all fsyncs — flush acks
	// and segment-rollover syncs alike. Durations marshal as raw
	// nanosecond integers, so the JSON name carries the unit.
	Flushes    uint64
	FlushTotal time.Duration `json:"FlushTotalNs"`
	// Pending is the writer queue's current backlog.
	Pending int
	// Tombstones counts quarantine markers encountered by the startup
	// scan plus those appended since open (poisoned records superseded
	// on disk).
	Tombstones uint64
	// Degraded reports that the store is in memory-only degraded mode:
	// persistent I/O failure was detected and disk writes are paused
	// until a re-probe succeeds. The in-memory cache above the store is
	// unaffected.
	Degraded bool
	// DegradedEnters counts transitions into degraded mode;
	// DegradedDrops counts records dropped (not written) while
	// degraded; Probes counts re-probe attempts (successful or not).
	DegradedEnters, DegradedDrops, Probes uint64
}

// location is one live record's index entry: where its frame sits and,
// parsed from the verified payload when the frame was scanned or
// appended, the keys a cache needs to admit the record without reading
// it — everything but the snapshot.
type location struct {
	seg   int64  // segment sequence number
	off   int64  // frame offset within the segment
	size  int64  // frame length in bytes
	order uint64 // monotonic (re)write stamp; Walk yields ascending
	epoch uint64 // statistics-epoch label (for the stale-record gauge)

	canonFp, structFp string
	perm              []int
}

// segment is what the store knows of one segment file: the length of
// its verified prefix, the header of the frame that ends there, and a
// tally of the frames in that prefix a scan counts but the index does
// not point at — so a boot that adopts the segment from the checkpoint
// reports the Stats a scan of it would.
type segment struct {
	size     int64
	lastHdr  [frameHeaderLen]byte // zero while size is 0
	tombs    uint64               // tombstone frames
	rejected uint64               // frames of another config echo or codec version
	maxEpoch uint64               // newest statistics-epoch label of an accepted record
}

// Store is the disk-backed snapshot store. Open one per directory;
// Put/Load/Flush/Stats are safe for concurrent use. Close flushes and
// stops the writer.
type Store struct {
	opts Options
	fs   faultfs.FS

	mu sync.Mutex

	// index maps a fingerprint to its live record, and classes a
	// canonical or structural digest to the fingerprint of its class's
	// most recently written live record. Both change only with mu and
	// idxMu held (mu first) and may be read under either: the writer
	// holds mu across whole appends, fsyncs and compactions, idxMu only
	// for the map operations themselves, so Find, Load and Walk — which
	// take idxMu alone — never wait for the disk behind the writer.
	idxMu   sync.Mutex
	index   map[string]location
	classes map[class]string

	nextOrder uint64             // next (re)write stamp
	openOrder uint64             // the write stamps below it went to records Open found
	segments  map[int64]*segment // by segment seq
	active    int64              // active segment seq
	file      faultfs.File       // active segment, owned by the writer
	maxEpoch  uint64             // newest statistics-epoch label seen
	hot       []string           // the checkpoint's hot set, read by Open
	stats     Stats
	closed    bool

	// generation counts compactions: the only event that deletes or
	// rewrites segment bytes a peer export may be reading. Segment files
	// are otherwise append-only, so an export manifest stamped with a
	// generation stays a consistent point-in-time view (roll-over adds
	// files, never touches recorded prefixes) until the generation
	// advances — then every in-flight read fails with ErrExportStale.
	generation uint64

	// Degraded-mode state (changed under mu): consecFails counts write-
	// path failures since the last success; once it reaches
	// FailThreshold the store flips degraded and schedules re-probes at
	// probeAt with exponentially backed-off, jittered spacing. degraded
	// is also read without mu, by Stats and a metrics scrape.
	consecFails  int
	degraded     atomic.Bool
	probeAt      time.Time
	probeBackoff time.Duration
	jitterRng    *rand.Rand

	queue chan writeReq
	done  chan struct{}

	inst Instruments
}

// Instruments are the store's metric instruments. Recording and reading
// them is atomics-only: neither takes the store's lock, which the writer
// holds across every append, fsync and compaction, so a metrics scrape
// never waits behind the disk.
type Instruments struct {
	// Append is the whole-record append latency and Flush every fsync's,
	// both recorded on the writer goroutine; Depth samples the writer
	// backlog each Put observed.
	Append, Flush, Depth *metrics.Histogram
	// The event counters, each the Stats field of its name.
	Persisted, Dropped, WriteErrors, Flushes          metrics.Counter
	DegradedEnters, DegradedDrops, Probes, Tombstones metrics.Counter
}

// writeReq is one queued append; flush requests carry only ack, and
// tomb marks a quarantine tombstone (rec carries only the fingerprint).
type writeReq struct {
	rec  Record
	ack  chan error
	tomb bool
}

// frame layout: u32 payload length | u32 CRC32C of payload | payload.
// payload: fp string | canonFp string | structFp string | cfgEcho
// string | statsEpoch uvarint | perm count + signed varints | snapshot
// blob (length-prefixed snapcodec record). The cfgEcho and statsEpoch
// are duplicated out of the snapshot blob so the startup scan can
// split structural config drift (hard reject) from statistics drift
// (load and count as stale) without decoding plan state. Frames from
// the pre-structFp layout parse as garbage here or carry an old
// snapcodec version; either way they are dropped at scan — degrading
// to a cold start, never to a wrong restore.
//
// A zero-length snapshot blob marks a quarantine tombstone: the frame
// supersedes every earlier record of its fingerprint and carries no
// restorable state. Writers never produce empty blobs otherwise
// (snapcodec records always carry a header), so the encoding is
// unambiguous and older segments remain readable.
const frameHeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open rebuilds the live-record index — adopted from the checkpoint as
// far as it still matches the segments, scanned from there on — and
// starts the background writer. Corrupt segment tails are truncated in
// place; a corrupt or unreadable directory entry is never fatal (the
// contract is "degrade to cold start, never fail startup").
func Open(opts Options) (*Store, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:     opts,
		fs:       opts.FS,
		index:    map[string]location{},
		classes:  map[class]string{},
		segments: map[int64]*segment{},
		queue:    make(chan writeReq, opts.QueueDepth),
		done:     make(chan struct{}),
		inst: Instruments{
			Append: metrics.NewDuration(),
			Flush:  metrics.NewDuration(),
			Depth:  metrics.NewValues(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
		},
		// Probe jitter only needs spread, not secrecy or replay: a fixed
		// seed keeps runs reproducible.
		jitterRng: rand.New(rand.NewSource(1)),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.openOrder = s.nextOrder
	opts.Events.Emit(eventlog.LevelInfo, "store", "opened",
		eventlog.F("dir", opts.Dir),
		eventlog.Fint("segments", int64(len(s.segments))),
		eventlog.Fint("live_records", int64(len(s.index))),
		eventlog.Fint("adopted_segments", int64(s.stats.AdoptedSegments)),
		eventlog.Fint("corrupted", int64(s.stats.Corrupted)),
		eventlog.Fint("tombstones", int64(s.inst.Tombstones.Value())))
	go s.writer()
	return s, nil
}

func segName(seq int64) string { return fmt.Sprintf("seg-%08d.moqs", seq) }

// segSeq parses a segment file name, reporting whether it is one.
func segSeq(name string) (int64, bool) {
	var seq int64
	if _, err := fmt.Sscanf(name, "seg-%d.moqs", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// scanWindowSize is the buffer the startup scan reads segments
// through: large enough that a read is amortized over dozens of frames,
// small enough that scanning never costs memory in proportion to the
// log (reading each segment whole did, and most of that scan's time was
// page-faulting the buffer in).
const scanWindowSize = 1 << 20

// scan adopts what the checkpoint still describes and reads every
// segment after it in sequence order, validating frames and building
// the index. The first bad frame of a segment truncates the file there;
// later segments still load (each record is self-contained, and later
// segments hold strictly newer records).
func (s *Store) scan() error {
	t0 := time.Now()
	entries, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var seqs []int64
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	s.active = 1
	next, from := s.adopt(seqs)
	var w scanWindow
	for _, seq := range seqs[next:] {
		// The writer continues in the newest segment only if the scan
		// knows exactly where that file ends.
		s.active = seq
		if !s.scanSegment(seq, from, &w) {
			s.active = seq + 1
		}
		from = 0
	}
	s.stats.ScanBytes = w.read
	s.stats.ScanTotal = time.Since(t0)
	return nil
}

// scanSegment indexes one segment file from offset from on (the end of
// what the checkpoint covered, or 0) and reports whether the file now
// ends where its recorded size says — what appending to it requires. A
// corrupt or torn frame truncates the file there. A read error is not
// corruption: the frames verified before it stay indexed, the file is
// left alone for a later boot to read, and the segment is not
// appendable — its real length is unknown, and a record appended to it
// would be indexed at the wrong offset. Neither fails the open.
func (s *Store) scanSegment(seq, from int64, w *scanWindow) (appendable bool) {
	path := filepath.Join(s.opts.Dir, segName(seq))
	seg := s.segments[seq]
	if seg == nil {
		seg = &segment{}
		s.segments[seq] = seg
	}
	off, size, err := s.indexFrames(seq, from, path, w)
	seg.size = off
	if err != nil {
		s.stats.Corrupted++
		return false
	}
	if off < size {
		// Corruption-tolerant replay: keep the valid prefix, drop the
		// rest. Truncating on disk keeps future scans (and appends, if
		// this is the active segment) consistent with the index.
		s.stats.Corrupted++
		if err := s.fs.Truncate(path, off); err != nil {
			s.inst.WriteErrors.Inc()
			return false
		}
	}
	return true
}

// indexFrames applies the per-frame rules to one segment in file order
// from offset off on — whole frame inside the file, CRC32C over the
// payload, payload parses — and indexes each frame that passes, up to
// the first that does not or the first read error. It returns the end
// of the last good frame and the file's size.
func (s *Store) indexFrames(seq, off int64, path string, w *scanWindow) (int64, int64, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return off, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return off, 0, err
	}
	size := info.Size()
	seg := s.segments[seq]
	w.reset(f, size)
	for size-off >= frameHeaderLen {
		hdr, err := w.bytes(off, frameHeaderLen)
		if err != nil {
			return off, size, err
		}
		end := off + frameLen(hdr)
		if end > size {
			break // torn tail
		}
		frame, err := w.bytes(off, int(end-off))
		if err != nil {
			return off, size, err
		}
		payload, ok := openFrame(frame)
		if !ok {
			break
		}
		rec, cfgEcho, blob, ok := parseFrame(payload)
		if !ok {
			break
		}
		switch s.indexFrame(rec, cfgEcho, blob, location{seg: seq, off: off, size: end - off}) {
		case frameLive:
			s.stats.Loaded++
		case frameKilled:
			s.stats.Loaded--
		}
		copy(seg.lastHdr[:], frame)
		off = end
	}
	return off, size, nil
}

// What indexFrame did with a frame.
const (
	frameDead   = iota // a rejected record, or a tombstone with nothing to kill
	frameLive          // a record now live
	frameKilled        // a tombstone that dropped a live record
)

// indexFrame classifies one verified frame found at loc — tombstone,
// foreign record or live record — and updates the index, the segment's
// tally and the counters. The scan and the writer's appends both go
// through it, so the index a life ends with is the one a scan of its
// log would build.
func (s *Store) indexFrame(rec Record, cfgEcho string, blob []byte, loc location) int {
	seg := s.segments[loc.seg]
	switch {
	case len(blob) == 0:
		// Quarantine tombstone: the fingerprint's earlier records are
		// poison; drop any indexed so far. Applied regardless of the
		// config echo — poison marking must not be undone by a config
		// change (D14: monotonic). A record scanned *after* the
		// tombstone is a fresh post-quarantine re-export and loads
		// normally.
		seg.tombs++
		s.inst.Tombstones.Inc()
		s.stats.DeadBytes += loc.size
		if s.unindex(rec.FP) {
			return frameKilled
		}
	case cfgEcho != s.opts.CfgEcho || !snapcodec.CompatibleHeader(blob):
		// A different optimizer configuration or a different
		// binary's wire format wrote this record; it can never
		// restore here. Marking it dead (not live) keeps the
		// Loaded count honest and lets compaction reclaim it.
		seg.rejected++
		s.stats.Rejected++
		s.stats.DeadBytes += loc.size
	default:
		seg.maxEpoch = max(seg.maxEpoch, rec.StatsEpoch)
		s.indexRecord(rec, loc)
		return frameLive
	}
	return frameDead
}

// scanWindow is the scan's forward-only view of a segment file:
// buf[:n] holds the file's bytes from start on. One window, and its
// buffer, serve every segment of a scan.
type scanWindow struct {
	f     faultfs.File
	size  int64 // of f
	buf   []byte
	start int64
	n     int
	read  int64 // bytes read through the window, all files
}

func (w *scanWindow) reset(f faultfs.File, size int64) {
	w.f, w.size, w.start, w.n = f, size, 0, 0
}

// bytes returns the n bytes of the file at off, valid until the next
// call. Callers keep off from decreasing and off+n inside the file.
// When the range runs past the window, the window slides forward to
// start at off — keeping what it already holds from there on, so every
// byte of the file is read once — and refills; its buffer is allocated
// at scanWindowSize and regrown only for a range larger than that.
func (w *scanWindow) bytes(off int64, n int) ([]byte, error) {
	if off+int64(n) > w.start+int64(w.n) {
		keep := 0
		if held := w.start + int64(w.n) - off; held > 0 {
			keep = copy(w.buf, w.buf[w.n-int(held):w.n])
		}
		if want := max(n, scanWindowSize); want > len(w.buf) {
			w.buf = append(make([]byte, 0, want), w.buf[:keep]...)[:want]
		}
		fill := int(min(int64(len(w.buf)), w.size-off))
		m, err := w.f.ReadAt(w.buf[keep:fill], off+int64(keep))
		w.read += int64(m)
		if keep+m < fill {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("store: scan: %w", err)
		}
		w.start, w.n = off, fill
	}
	return w.buf[off-w.start:][:n], nil
}

// indexRecord makes loc, completed with rec's keys and the next write
// stamp, fp's live record, marking any superseded record's bytes dead
// (a re-persist moves the fingerprint to the end of the walk order,
// exactly like a live Put sequence would). Callers hold mu (or run
// before the writer starts).
func (s *Store) indexRecord(rec Record, loc location) {
	old, had := s.index[rec.FP]
	if had {
		s.stats.DeadBytes += old.size
		s.stats.LiveBytes -= old.size
	}
	loc.order = s.nextOrder
	s.nextOrder++
	loc.epoch = rec.StatsEpoch
	loc.canonFp, loc.structFp, loc.perm = rec.CanonFP, rec.StructFP, rec.Perm
	s.idxMu.Lock()
	s.index[rec.FP] = loc
	for t := TierCanon; t <= TierStruct; t++ {
		if key := loc.key(t); key != "" {
			s.classes[class{t, key}] = rec.FP
		}
	}
	if had {
		s.releaseLocked(rec.FP, old)
	}
	s.idxMu.Unlock()
	s.stats.LiveBytes += loc.size
	if loc.epoch > s.maxEpoch {
		s.maxEpoch = loc.epoch
	}
}

// unindex drops fp's live record, if it has one, and counts its bytes
// dead. Callers hold mu (or run before the writer starts).
func (s *Store) unindex(fp string) bool {
	old, ok := s.index[fp]
	if ok {
		s.stats.DeadBytes += old.size
		s.stats.LiveBytes -= old.size
		s.idxMu.Lock()
		delete(s.index, fp)
		s.releaseLocked(fp, old)
		s.idxMu.Unlock()
	}
	return ok
}

// Tier names the key a Find goes by: one of the plan cache's tiers.
type Tier uint8

const (
	TierExact  Tier = iota // the exact fingerprint
	TierCanon              // the canonical digest (isomorphism class)
	TierStruct             // the structural fingerprint (drift class)
)

// class is a classes key: the digest of a class in tier TierCanon or
// TierStruct.
type class struct {
	t   Tier
	key string
}

// key returns the record's key in class tier t.
func (l *location) key(t Tier) string {
	if t == TierCanon {
		return l.canonFp
	}
	return l.structFp
}

// releaseLocked hands each class entry that names fp, whose record was
// old and whose live record (if any) is no longer in that class, to the
// class's most recently written live record, or drops it when the class
// has none left. So a class answers the same whatever built the index —
// appends, a scan of the log, the checkpoint, compaction — at the price
// of one pass over the index when a class loses its newest record: a
// quarantine, a tombstone at scan, a re-persist under other class keys.
// Callers hold mu and idxMu.
func (s *Store) releaseLocked(fp string, old location) {
	for t := TierCanon; t <= TierStruct; t++ {
		c := class{t, old.key(t)}
		if c.key == "" || s.classes[c] != fp {
			continue
		}
		if cur, ok := s.index[fp]; ok && cur.key(t) == c.key {
			continue
		}
		delete(s.classes, c)
		for f, l := range s.index {
			if cur, set := s.classes[c]; l.key(t) == c.key && (!set || l.order > s.index[cur].order) {
				s.classes[c] = f
			}
		}
	}
}

// Find answers a plan-cache tier's key from the index, with no I/O: the
// keys of fp's live record (TierExact), or of the most recently written
// live record of the class the digest names (TierCanon, TierStruct),
// and whether that record was already on disk when Open ran rather than
// written since. The record may be superseded or quarantined by the
// time the caller Loads it; Load answers for the index as it is then.
func (s *Store) Find(t Tier, key string) (rec Record, atOpen, ok bool) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if t != TierExact {
		if key, ok = s.classes[class{t, key}]; !ok {
			return
		}
	}
	loc, ok := s.index[key]
	if !ok {
		return
	}
	return Record{FP: key, CanonFP: loc.canonFp, StructFP: loc.structFp, Perm: loc.perm, StatsEpoch: loc.epoch},
		loc.order < s.openOrder, true
}

// liveRecord is one index entry with its key, as liveInOrder lists them.
type liveRecord struct {
	fp  string
	loc location
}

// liveInOrder returns the live records sorted by write stamp. Callers
// hold mu or idxMu.
func (s *Store) liveInOrder() []liveRecord {
	live := make([]liveRecord, 0, len(s.index))
	for fp, loc := range s.index {
		live = append(live, liveRecord{fp, loc})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].loc.order < live[j].loc.order })
	return live
}

// parseFrame parses a frame payload: the record's keys, the config echo
// and the raw snapshot blob (aliasing payload; empty on a tombstone),
// without decoding plan state. ok is false unless the payload parses to
// its last byte.
func parseFrame(payload []byte) (rec Record, cfgEcho string, blob []byte, ok bool) {
	r := snapcodec.NewReader(payload)
	rec.FP, rec.CanonFP, rec.StructFP, cfgEcho = r.Str(), r.Str(), r.Str(), r.Str()
	rec.StatsEpoch = r.Uvarint()
	rec.Perm = readPerm(&r)
	blob = r.Bytes(r.Count())
	return rec, cfgEcho, blob, r.Err() == nil && r.Len() == 0
}

// encodeFrame seals the frame of one record: rec's keys and statistics
// epoch, the configuration echo and the encoded snapshot. A quarantine
// tombstone is the frame of a Record with only its fingerprint set and
// an empty blob.
func encodeFrame(rec Record, cfgEcho string, blob []byte) []byte {
	var payload []byte
	payload = snapcodec.AppendString(payload, rec.FP)
	payload = snapcodec.AppendString(payload, rec.CanonFP)
	payload = snapcodec.AppendString(payload, rec.StructFP)
	payload = snapcodec.AppendString(payload, cfgEcho)
	payload = binary.AppendUvarint(payload, rec.StatsEpoch)
	payload = appendPerm(payload, rec.Perm)
	payload = binary.AppendUvarint(payload, uint64(len(blob)))
	payload = append(payload, blob...)
	return sealFrame(payload)
}

// appendPerm encodes a canonical permutation as frames and the checkpoint
// carry it: a count, then signed varints (-1 marks an absent table).
func appendPerm(b []byte, perm []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(perm)))
	for _, p := range perm {
		b = binary.AppendVarint(b, int64(p))
	}
	return b
}

// readPerm decodes what appendPerm wrote; nil for an empty permutation.
func readPerm(r *snapcodec.Reader) []int {
	n := r.Count()
	if n == 0 {
		return nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = int(r.Varint())
	}
	return perm
}

// sealFrame prefixes payload with the frame header: its length and its
// CRC32C.
func sealFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// frameLen is the length of the whole frame whose header hdr begins.
func frameLen(hdr []byte) int64 {
	return frameHeaderLen + int64(binary.LittleEndian.Uint32(hdr))
}

// openFrame is sealFrame's inverse on a buffer holding exactly one frame,
// and the one length-and-CRC32C check of every frame the store reads
// back (the startup scan, Load, a peer export's ValidFrames, the
// checkpoint): the payload, if the header's length and CRC32C both
// match it.
func openFrame(frame []byte) (payload []byte, ok bool) {
	if len(frame) < frameHeaderLen {
		return nil, false
	}
	payload = frame[frameHeaderLen:]
	return payload, frameLen(frame) == int64(len(frame)) &&
		crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(frame[4:])
}

// Walk calls fn with the keys of every live record in write order,
// straight from the index: no I/O, Snap nil. fn returning false stops
// the walk. A record Walk yielded may be superseded or quarantined by
// the time the caller Loads it; Load answers for the index as it is
// then.
func (s *Store) Walk(fn func(Record) bool) {
	s.idxMu.Lock()
	live := s.liveInOrder()
	s.idxMu.Unlock()
	for _, l := range live {
		if !fn(Record{FP: l.fp, CanonFP: l.loc.canonFp, StructFP: l.loc.structFp,
			Perm: l.loc.perm, StatsEpoch: l.loc.epoch}) {
			return
		}
	}
}

// ErrNotStored is Load's answer for a fingerprint with no live record:
// never persisted, quarantined, or rejected at scan.
var ErrNotStored = errors.New("store: no live record")

// ErrCorrupt is wrapped by the errors Load returns for a frame it read
// but will not hand out: wrong length, failed checksum, unparseable, or
// another fingerprint's. Any other error from Load is the filesystem's
// and says nothing about the record.
var ErrCorrupt = errors.New("store: record failed verification")

// Load reads fp's live record from its segment and returns the
// snapshot, still encoded (a snapcodec record, the caller's to keep).
// The frame is handed out only if its length, its CRC32C and the
// fingerprint it names check out. Load takes idxMu for the index lookup
// and no lock for the read, so it waits neither for the writer's fsync
// nor for a compaction; when a read or a check fails it looks the
// location up once more — a compaction may have moved the record and
// deleted the segment underneath the read — and tries again if it
// changed. Degraded mode pauses writes, not loads.
func (s *Store) Load(fp string) ([]byte, error) {
	var tried location
	var failure error
	for {
		s.idxMu.Lock()
		loc, ok := s.index[fp]
		s.idxMu.Unlock()
		if !ok {
			return nil, ErrNotStored
		}
		if failure != nil && loc.seg == tried.seg && loc.off == tried.off {
			return nil, failure
		}
		blob, err := s.readSnapshot(fp, loc)
		if err == nil {
			return blob, nil
		}
		tried, failure = loc, err
	}
}

// readSnapshot reads the frame at loc and returns its snapshot blob if
// the frame is whole, CRC-clean, fp's and carries the keys the index
// holds for it — which came from this frame's scan or append, or from
// the checkpoint (D22): a checkpoint cannot make Walk's keys and Load's
// snapshot disagree.
func (s *Store) readSnapshot(fp string, loc location) ([]byte, error) {
	name := segName(loc.seg)
	f, err := s.fs.Open(filepath.Join(s.opts.Dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	frame := make([]byte, loc.size)
	if n, err := f.ReadAt(frame, loc.off); n < len(frame) {
		return nil, fmt.Errorf("store: load: %s@%d: read %d of %d bytes: %w", name, loc.off, n, len(frame), err)
	}
	payload, ok := openFrame(frame)
	if !ok {
		return nil, fmt.Errorf("%w: %s@%d: frame length or checksum", ErrCorrupt, name, loc.off)
	}
	rec, _, blob, ok := parseFrame(payload)
	if !ok || rec.FP != fp || len(blob) == 0 || rec.CanonFP != loc.canonFp || rec.StructFP != loc.structFp ||
		rec.StatsEpoch != loc.epoch || !slices.Equal(rec.Perm, loc.perm) {
		return nil, fmt.Errorf("%w: %s@%d: not a record of %q", ErrCorrupt, name, loc.off, fp)
	}
	return blob, nil
}

// Replay is Walk with every record loaded and decoded before fn sees it
// (Snap set). A record that cannot be read, fails Load's checks or
// fails to decode is counted as corrupted and skipped — replay
// degrades, never fails; one superseded or quarantined since the walk
// listed it is skipped silently.
func (s *Store) Replay(fn func(Record) bool) error {
	s.Walk(func(rec Record) bool {
		blob, err := s.Load(rec.FP)
		if errors.Is(err, ErrNotStored) {
			return true
		}
		if err == nil {
			rec.Snap, err = snapcodec.Decode(blob)
		}
		if err != nil {
			s.NoteCorrupt()
			return true
		}
		return fn(rec)
	})
	return nil
}

// NoteCorrupt counts one live record that turned out unusable after the
// scan accepted it: Load could not produce its frame, or the snapshot
// Load handed out failed to decode.
func (s *Store) NoteCorrupt() {
	s.mu.Lock()
	s.stats.Corrupted++
	s.mu.Unlock()
}

// Put queues the record for an asynchronous append. It never blocks:
// with the writer backlogged past QueueDepth the record is dropped and
// counted (the snapshot still lives in the in-memory cache; only its
// restart durability is lost). Nil snapshots are ignored.
func (s *Store) Put(fp, canonFp, structFp string, perm []int, snap *core.Snapshot) {
	if snap == nil {
		return
	}
	// Sample the backlog this producer saw (len on a channel is a
	// lock-free read); the depth distribution shows how close live
	// traffic runs to the shedding threshold, which the Dropped counter
	// alone cannot.
	s.inst.Depth.Observe(int64(len(s.queue)))
	select {
	case s.queue <- writeReq{rec: Record{FP: fp, CanonFP: canonFp, StructFP: structFp, Perm: perm, Snap: snap}}:
	default:
		s.mu.Lock()
		if !s.closed {
			s.inst.Dropped.Inc()
		}
		s.mu.Unlock()
	}
}

// PutBlocking is Put for callers that must not shed: it blocks until
// the record is enqueued (or the store is closed). The service's drain
// checkpoint uses it — dropping a record there would silently lose the
// warm state the drain exists to save — and so does the benchmark's
// store probe, which times every record it hands over.
func (s *Store) PutBlocking(fp, canonFp, structFp string, perm []int, snap *core.Snapshot) {
	if snap == nil {
		return
	}
	select {
	case s.queue <- writeReq{rec: Record{FP: fp, CanonFP: canonFp, StructFP: structFp, Perm: perm, Snap: snap}}:
	case <-s.done:
	}
}

// Quarantine marks a fingerprint's persisted record as poison: the
// live record (if any) is dead immediately — Walk no longer lists it
// and Load answers ErrNotStored — and a tombstone frame superseding it
// on disk is queued through the writer (blocking enqueue: quarantine is
// rare and must not be shed), so the poison marking survives restarts.
// A later Put of the same fingerprint (the cold re-optimization's fresh
// export) is unaffected: it writes after the tombstone and loads
// normally.
func (s *Store) Quarantine(fp string) {
	s.mu.Lock()
	s.unindex(fp)
	s.mu.Unlock()
	select {
	case s.queue <- writeReq{rec: Record{FP: fp}, tomb: true}:
	case <-s.done:
	}
}

// Flush blocks until every record queued before the call is on disk
// and the active segment is synced. Used by graceful shutdown.
func (s *Store) Flush() error {
	ack := make(chan error, 1)
	select {
	case s.queue <- writeReq{ack: ack}:
		return <-ack
	case <-s.done:
		return fmt.Errorf("store: closed")
	}
}

// Close flushes pending writes, stops the writer and leaves the
// checkpoint: the index as it stands after the final flush, with hot
// (the fingerprints this life used, most recently used first) as the
// next life's hot set. A store that is degraded or whose final flush
// failed writes no checkpoint; the previous one, if any, still
// describes a prefix of the log and stays. The store is unusable
// afterwards.
func (s *Store) Close(hot ...string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.Flush()
	close(s.done)
	s.mu.Lock()
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
		s.file = nil
	}
	var cp []byte
	if err == nil && !s.degraded.Load() {
		cp = s.encodeCheckpointLocked(hot)
	}
	s.mu.Unlock()
	if cp != nil {
		err = s.writeCheckpoint(cp)
	}
	return err
}

// Hot returns the hot set of the checkpoint Open read, in the order the
// previous life's Close got it, or nil when there was no usable
// checkpoint. The fingerprints are not checked against the index: the
// caller Finds each, so dead names fall away there.
func (s *Store) Hot() []string { return s.hot }

// Instruments returns the store's histograms and event counters for
// registration in a metrics registry; they live as long as the store.
// Callers read them, and only the store records into them.
func (s *Store) Instruments() *Instruments { return &s.inst }

// Degraded reports, without the store's lock, whether the store is in
// memory-only degraded mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// QueueDepth returns the writer queue's current backlog (lock-free).
func (s *Store) QueueDepth() int { return len(s.queue) }

// Stats returns the store's counters and gauges: the event counters read
// one word each, the rest under the store's lock.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	in := &s.inst
	st.Persisted, st.Dropped, st.WriteErrors, st.Flushes = in.Persisted.Value(), in.Dropped.Value(), in.WriteErrors.Value(), in.Flushes.Value()
	st.DegradedEnters, st.DegradedDrops = in.DegradedEnters.Value(), in.DegradedDrops.Value()
	st.Probes, st.Tombstones, st.Degraded = in.Probes.Value(), in.Tombstones.Value(), s.degraded.Load()
	st.Segments = len(s.segments)
	st.LiveRecords = len(s.index)
	st.Pending = len(s.queue)
	st.MaxStatsEpoch = s.maxEpoch
	for _, loc := range s.index {
		if loc.epoch < s.maxEpoch {
			st.StaleEpoch++
		}
	}
	return st
}

// MaxStatsEpoch returns the newest statistics-epoch label the store has
// seen across scanned and appended records. A restoring service raises
// its versioned catalog to at least this value so epoch labels stay
// monotonic across restarts.
func (s *Store) MaxStatsEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxEpoch
}

// writer is the background append loop: it owns the active segment
// file, applies appends and flush acks in arrival order, rolls
// segments past MaxSegmentBytes and compacts when the dead fraction
// crosses the threshold.
func (s *Store) writer() {
	for {
		select {
		case <-s.done:
			return
		case req := <-s.queue:
			if req.ack != nil {
				req.ack <- s.sync()
				continue
			}
			s.append(req.rec, req.tomb)
		}
	}
}

// append writes one record (or tombstone) frame to the active segment
// and updates the index. Failures are counted, not propagated: the
// caller already has the snapshot in memory. Consecutive write-path
// failures flip the store into degraded mode — memory-only, no disk
// I/O attempted — until a probe append (scheduled with jittered
// exponential backoff) reaches the disk again.
func (s *Store) append(rec Record, tomb bool) {
	t0 := time.Now()
	defer func() { s.inst.Append.ObserveDuration(time.Since(t0)) }()
	cfgEcho, blob := s.opts.CfgEcho, []byte(nil)
	if !tomb {
		var err error
		if blob, err = snapcodec.Encode(nil, rec.Snap); err != nil {
			// Encoding failures are record bugs, not disk faults: counted,
			// but never a reason to degrade.
			s.inst.WriteErrors.Inc()
			return
		}
		cfgEcho, rec.StatsEpoch = rec.Snap.CfgEcho(), rec.Snap.StatsEpoch()
	}
	frame := encodeFrame(rec, cfgEcho, blob)
	// Registered before the unlock defer so it runs after it: degraded-
	// mode transition events write the console mirror, which must stay
	// outside the lock.
	var emit func()
	defer func() {
		if emit != nil {
			emit()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded.Load() && time.Now().Before(s.probeAt) {
		// Memory-only operation: the disk is known bad and the next
		// probe is not due yet. The snapshot stays live in the service's
		// cache; only restart durability is lost, and that is the deal
		// degraded mode makes to keep serving.
		s.inst.DegradedDrops.Inc()
		return
	}
	if s.degraded.Load() {
		s.inst.Probes.Inc() // probe due: this append is the probe
	}
	if err := s.ensureActiveLocked(int64(len(frame))); err != nil {
		s.inst.WriteErrors.Inc()
		emit = s.noteIOFailureLocked()
		return
	}
	seg := s.segments[s.active]
	off := seg.size
	if _, err := s.file.Write(frame); err != nil {
		s.inst.WriteErrors.Inc()
		// The segment tail may now hold a torn frame. The next startup
		// scan truncates a segment at its first bad CRC, so appending
		// more records after the tear would doom them all; retire the
		// segment and continue in a fresh one (only the torn frame is
		// lost). Truncate back to the pre-write offset and record that
		// as the retired segment's size: every byte a peer export serves
		// by these recorded sizes must be a whole valid frame, so a torn
		// tail can never be counted (if the truncate fails too, the
		// recorded size still stops reads short of the tear).
		s.file.Close()
		s.file = nil
		if terr := s.fs.Truncate(filepath.Join(s.opts.Dir, segName(s.active)), off); terr != nil {
			s.inst.WriteErrors.Inc()
		}
		seg.size = off
		s.active++
		emit = s.noteIOFailureLocked()
		return
	}
	emit = s.noteIOSuccessLocked()
	seg.size = off + int64(len(frame))
	copy(seg.lastHdr[:], frame)
	// Classified as the scan will: a tombstone's own bytes are dead (the
	// record it supersedes was already unindexed by Quarantine), and so
	// is a record of another configuration.
	s.indexFrame(rec, cfgEcho, blob, location{seg: s.active, off: off, size: int64(len(frame))})
	if !tomb {
		s.inst.Persisted.Inc()
	}
	s.maybeCompactLocked()
}

// noteIOFailureLocked records one write-path failure: it enters
// degraded mode at the configured threshold and, once degraded, backs
// the next probe off exponentially with ±50% jitter. Callers hold mu.
// On the enter-degraded transition it returns a non-nil emit func the
// caller must invoke after releasing mu: Emit writes the stderr
// mirror synchronously, and console I/O must not run under the store
// lock exactly when the disk is already struggling.
func (s *Store) noteIOFailureLocked() (emit func()) {
	s.consecFails++
	if !s.degraded.Load() {
		if s.consecFails < s.opts.FailThreshold {
			return nil
		}
		s.degraded.Store(true)
		s.inst.DegradedEnters.Inc()
		s.probeBackoff = s.opts.ProbeInterval
		fails, probeIn := int64(s.consecFails), s.probeBackoff
		emit = func() {
			s.opts.Events.Emit(eventlog.LevelError, "store", "entered degraded mode",
				eventlog.Fint("consecutive_failures", fails),
				eventlog.Fdur("probe_in", probeIn))
		}
	} else {
		s.probeBackoff *= 2
		if s.probeBackoff > s.opts.ProbeMaxInterval {
			s.probeBackoff = s.opts.ProbeMaxInterval
		}
	}
	s.probeAt = time.Now().Add(s.jitterLocked(s.probeBackoff))
	return emit
}

// noteIOSuccessLocked resets the failure streak; a successful probe
// exits degraded mode and re-enables persistence. Like
// noteIOFailureLocked it returns the transition's emit func (non-nil
// only on exit-degraded) for the caller to run after unlocking.
func (s *Store) noteIOSuccessLocked() (emit func()) {
	s.consecFails = 0
	if s.degraded.Load() {
		s.degraded.Store(false)
		dropped := int64(s.inst.DegradedDrops.Value())
		emit = func() {
			s.opts.Events.Emit(eventlog.LevelInfo, "store", "exited degraded mode",
				eventlog.Fint("records_dropped", dropped))
		}
	}
	return emit
}

// jitterLocked spreads d into [d/2, 3d/2) so fleet-wide probes do not
// synchronize. Callers hold mu.
func (s *Store) jitterLocked(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(s.jitterRng.Int63n(int64(d)))
}

// ensureActiveLocked opens the active segment, rolling to a new one if
// the next frame would push it past MaxSegmentBytes.
func (s *Store) ensureActiveLocked(next int64) error {
	if s.file != nil && s.segments[s.active].size+next > s.opts.MaxSegmentBytes && s.segments[s.active].size > 0 {
		// Sync before retiring the segment: Flush only ever syncs the
		// active file, so without this a rolled segment's frames could
		// sit in the page cache past a flush ack and be lost to a
		// crash the caller was told they survived.
		if err := s.syncFileLocked(); err != nil {
			s.inst.WriteErrors.Inc()
		}
		s.file.Close()
		s.file = nil
		s.active++
	}
	if s.file == nil {
		f, err := s.fs.OpenFile(filepath.Join(s.opts.Dir, segName(s.active)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.file = f
		if _, ok := s.segments[s.active]; !ok {
			s.segments[s.active] = &segment{}
		}
	}
	return nil
}

func (s *Store) sync() error {
	// As in append: transition events run after the unlock defer.
	var emit func()
	defer func() {
		if emit != nil {
			emit()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inst.Flushes.Inc()
	if s.file == nil {
		return nil
	}
	err := s.syncFileLocked()
	if err != nil {
		s.inst.WriteErrors.Inc()
		emit = s.noteIOFailureLocked()
	} else {
		emit = s.noteIOSuccessLocked()
	}
	return err
}

// syncFileLocked fsyncs the active segment, feeding the flush-latency
// histogram and cumulative flush time. Callers hold mu and have checked
// s.file != nil.
func (s *Store) syncFileLocked() error {
	t0 := time.Now()
	err := s.file.Sync()
	d := time.Since(t0)
	s.inst.Flush.ObserveDuration(d)
	s.stats.FlushTotal += d
	return err
}

// maybeCompactLocked rewrites the live records into a fresh segment
// once dead bytes exceed the configured fraction, deleting the old
// segments. Runs on the writer goroutine with mu held; Puts queue up
// behind it (compaction is rare and bounded by live bytes).
func (s *Store) maybeCompactLocked() {
	dead := s.stats.DeadBytes
	total := dead + s.stats.LiveBytes
	if dead < s.opts.MinCompactBytes || total == 0 ||
		float64(dead)/float64(total) < s.opts.CompactFraction {
		return
	}
	oldSegs := make([]int64, 0, len(s.segments))
	for seq := range s.segments {
		oldSegs = append(oldSegs, seq)
	}
	newSeq := s.active + 1
	path := filepath.Join(s.opts.Dir, segName(newSeq))
	out, err := s.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.inst.WriteErrors.Inc()
		return
	}
	// Copy raw frames in write order; no decode needed. Reads go
	// through ReadAt on freshly opened handles (the active segment's
	// write handle is append-only).
	readers := map[int64]faultfs.File{}
	defer func() {
		for _, f := range readers {
			f.Close()
		}
	}()
	newIndex := make(map[string]location, len(s.index))
	compacted := &segment{}
	var frame []byte
	for _, l := range s.liveInOrder() {
		loc := l.loc
		f, ok := readers[loc.seg]
		if !ok {
			f, err = s.fs.Open(filepath.Join(s.opts.Dir, segName(loc.seg)))
			if err != nil {
				break
			}
			readers[loc.seg] = f
		}
		frame = slices.Grow(frame[:0], int(loc.size))[:loc.size]
		if _, err = f.ReadAt(frame, loc.off); err != nil {
			break
		}
		if _, err = out.Write(frame); err != nil {
			break
		}
		// Only the address changes: the write stamp carries over, so
		// compaction leaves the walk order alone, and so do the keys.
		loc.seg, loc.off = newSeq, compacted.size
		newIndex[l.fp] = loc
		compacted.size += loc.size
		copy(compacted.lastHdr[:], frame)
		compacted.maxEpoch = max(compacted.maxEpoch, loc.epoch)
	}
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Abandon the partial compaction; the old segments are intact.
		s.inst.WriteErrors.Inc()
		s.fs.Remove(path)
		return
	}
	if s.file != nil {
		s.file.Close()
		s.file = nil
	}
	// The new segment is complete and synced, the old ones not yet
	// deleted: a Load holding an old location still reads good bytes, or
	// finds its file gone and looks the record up again.
	s.idxMu.Lock()
	s.index = newIndex
	s.idxMu.Unlock()
	s.segments = map[int64]*segment{newSeq: compacted}
	s.active = newSeq
	s.stats.LiveBytes = compacted.size
	s.stats.DeadBytes = 0
	s.stats.Compactions++
	// Old segment bytes are about to disappear; invalidate every
	// in-flight export view before the deletes land.
	s.generation++
	for _, seq := range oldSegs {
		if err := s.fs.Remove(filepath.Join(s.opts.Dir, segName(seq))); err != nil {
			s.inst.WriteErrors.Inc()
		}
	}
}
