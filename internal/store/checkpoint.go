package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/snapcodec"
)

// The checkpoint (DESIGN.md D22) is one file beside the segments that
// Close leaves behind: the live index as it stood after the final
// flush, so the next Open adopts it instead of re-reading and
// re-checksumming the log. It also carries the previous life's hot
// fingerprints, the records the service fetches before it reports
// ready (D19). It is advisory end to end: written without an fsync,
// trusted only for the prefix of segments that still matches it, and
// every frame it points at is still checked by Load. A missing, torn,
// corrupt, foreign-config or unparseable checkpoint means a scan of the
// whole log, and a stale one means a scan of what it does not cover.
//
// Layout: one frame as in the segments (u32 payload length | u32
// CRC32C | payload). Payload:
//
//	version uvarint | cfgEcho string
//	hot count | hot fingerprint strings
//	segment count | per segment, ascending seq: seq, covered size,
//	    8-byte header of the last covered frame, tombstone frames,
//	    rejected frames, newest statistics epoch (uvarints but the header)
//	record count | per live record, in write order: fp, canonFp,
//	    structFp strings, statsEpoch, perm count + signed varints, seq,
//	    offset, size
const (
	checkpointName    = "checkpoint.moqc"
	checkpointVersion = 1
)

// checkpoint is a decoded checkpoint file.
type checkpoint struct {
	hot     []string
	segs    []cpSegment
	records []cpRecord
}

type cpSegment struct {
	seq int64
	segment
}

type cpRecord struct {
	rec Record
	loc location
}

// encodeCheckpointLocked seals the store's current index, segment list
// and hot set as a checkpoint. Callers hold mu.
func (s *Store) encodeCheckpointLocked(hot []string) []byte {
	b := binary.AppendUvarint(nil, checkpointVersion)
	b = snapcodec.AppendString(b, s.opts.CfgEcho)
	b = binary.AppendUvarint(b, uint64(len(hot)))
	for _, fp := range hot {
		b = snapcodec.AppendString(b, fp)
	}
	seqs := make([]int64, 0, len(s.segments))
	for seq := range s.segments {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	b = binary.AppendUvarint(b, uint64(len(seqs)))
	for _, seq := range seqs {
		seg := s.segments[seq]
		b = binary.AppendUvarint(b, uint64(seq))
		b = binary.AppendUvarint(b, uint64(seg.size))
		b = append(b, seg.lastHdr[:]...)
		b = binary.AppendUvarint(b, seg.tombs)
		b = binary.AppendUvarint(b, seg.rejected)
		b = binary.AppendUvarint(b, seg.maxEpoch)
	}
	live := s.liveInOrder()
	b = binary.AppendUvarint(b, uint64(len(live)))
	for _, l := range live {
		b = snapcodec.AppendString(b, l.fp)
		b = snapcodec.AppendString(b, l.loc.canonFp)
		b = snapcodec.AppendString(b, l.loc.structFp)
		b = binary.AppendUvarint(b, l.loc.epoch)
		b = appendPerm(b, l.loc.perm)
		b = binary.AppendUvarint(b, uint64(l.loc.seg))
		b = binary.AppendUvarint(b, uint64(l.loc.off))
		b = binary.AppendUvarint(b, uint64(l.loc.size))
	}
	return sealFrame(b)
}

// writeCheckpoint replaces the checkpoint file with frame: a temporary
// file renamed over the old one, so a crash at any point leaves either
// the previous checkpoint or this one. A failed write changes no store
// state and never counts toward degraded mode.
func (s *Store) writeCheckpoint(frame []byte) error {
	path := filepath.Join(s.opts.Dir, checkpointName)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	_, err = f.Write(frame)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp) // best effort: a leftover tmp is overwritten by the next Close
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint reads and decodes the checkpoint file. ok is false
// when it is absent, fails its checksum, carries another format
// version or configuration echo, or does not parse to its last byte.
func (s *Store) readCheckpoint() (cp checkpoint, ok bool) {
	data, err := s.fs.ReadFile(filepath.Join(s.opts.Dir, checkpointName))
	if err != nil {
		return cp, false
	}
	payload, ok := openFrame(data)
	if !ok {
		return cp, false
	}
	r := snapcodec.NewReader(payload)
	if r.Uvarint() != checkpointVersion || r.Str() != s.opts.CfgEcho {
		return cp, false
	}
	cp.hot = make([]string, r.Count())
	for i := range cp.hot {
		cp.hot[i] = r.Str()
	}
	cp.segs = make([]cpSegment, r.Count())
	for i := range cp.segs {
		c := &cp.segs[i]
		c.seq, c.size = r.Int64(), r.Int64()
		copy(c.lastHdr[:], r.Bytes(frameHeaderLen))
		c.tombs, c.rejected, c.maxEpoch = r.Uvarint(), r.Uvarint(), r.Uvarint()
	}
	cp.records = make([]cpRecord, r.Count())
	for i := range cp.records {
		c := &cp.records[i]
		c.rec.FP, c.rec.CanonFP, c.rec.StructFP = r.Str(), r.Str(), r.Str()
		c.rec.StatsEpoch = r.Uvarint()
		c.rec.Perm = readPerm(&r)
		c.loc.seg, c.loc.off, c.loc.size = r.Int64(), r.Int64(), r.Int64()
	}
	return cp, r.Err() == nil && r.Len() == 0
}

// adopt takes over the checkpoint's index for the longest prefix of
// seqs (the directory's segments, ascending) that the checkpoint still
// describes — the same segments in the same order, each at least as
// long as it covers and still holding the recorded header of its last
// covered frame — and returns where the scan starts: segment seqs[next]
// at offset from. A segment longer than the checkpoint covers ends the
// prefix; the scan reads on from its covered size. Without a usable
// checkpoint it returns (0, 0): the whole log is scanned.
func (s *Store) adopt(seqs []int64) (next int, from int64) {
	cp, ok := s.readCheckpoint()
	if !ok {
		return 0, 0
	}
	s.hot = cp.hot
	n, tail := 0, false
	for n < len(cp.segs) && n < len(seqs) && !tail {
		c := &cp.segs[n]
		if c.seq != seqs[n] {
			break
		}
		size, ok := s.stillHolds(c)
		if !ok {
			break
		}
		tail = size > c.size
		n++
	}
	if n == 0 {
		return 0, 0
	}
	var covered int64
	for _, c := range cp.segs[:n] {
		seg := c.segment
		s.segments[c.seq] = &seg
		covered += seg.size
		s.inst.Tombstones.Add(seg.tombs)
		s.stats.Rejected += seg.rejected
		s.maxEpoch = max(s.maxEpoch, seg.maxEpoch)
	}
	for _, c := range cp.records {
		seg, ok := s.segments[c.loc.seg]
		if !ok || c.loc.off < 0 || c.loc.size < frameHeaderLen || c.loc.off > seg.size-c.loc.size {
			continue // in a segment not adopted, or outside what it covers
		}
		s.indexRecord(c.rec, c.loc)
	}
	s.stats.DeadBytes = covered - s.stats.LiveBytes
	s.stats.AdoptedSegments = n
	s.stats.AdoptedRecords = len(s.index)
	s.stats.Loaded = uint64(len(s.index))
	last := cp.segs[n-1]
	s.active = last.seq
	if tail {
		return n - 1, last.size
	}
	return n, 0
}

// stillHolds reports whether segment c.seq's file is at least as long
// as the checkpoint covers and still carries the recorded last-frame
// header where that frame starts, and returns the file's size: one
// open, one stat and one 8-byte read.
func (s *Store) stillHolds(c *cpSegment) (size int64, ok bool) {
	f, err := s.fs.Open(filepath.Join(s.opts.Dir, segName(c.seq)))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size() < c.size {
		return 0, false
	}
	if c.size == 0 {
		return info.Size(), true
	}
	lastOff := c.size - frameHeaderLen - int64(binary.LittleEndian.Uint32(c.lastHdr[:]))
	if lastOff < 0 {
		return 0, false
	}
	var hdr [frameHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], lastOff); err != nil || hdr != c.lastHdr {
		return 0, false
	}
	return info.Size(), true
}
