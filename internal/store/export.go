package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
)

// Peer export: a donor node serves its raw segment bytes to a joining
// node so the joiner can bootstrap its warm-start store from a live
// peer instead of an empty directory (DESIGN.md D16). The unit of
// transfer is the frame — the same length+CRC32C envelope the startup
// scan validates — so the joiner verifies every byte with machinery it
// already trusts and never indexes a partial or corrupt record.
//
// Consistency model: segment files are append-only and roll-over only
// adds files, so a manifest's (seq, size) pairs describe immutable
// bytes — with one exception, compaction, which rewrites and deletes
// segments. The manifest therefore carries the store's compaction
// generation; ReadSegment re-checks it and fails with ErrExportStale
// (a clean, retryable error) rather than ever serving bytes that could
// interleave two generations. An exporter that races a compaction
// restarts from a fresh manifest.

// ErrExportStale reports that the store compacted after the export
// manifest was taken: the manifest's segments no longer describe the
// live bytes. The caller should fetch a fresh manifest and restart the
// transfer.
var ErrExportStale = errors.New("store: export view superseded by compaction")

// SegmentInfo describes one exportable segment: its sequence number
// and the length of its valid-frame prefix at manifest time. Bytes
// past Size (appended later, or a torn tail awaiting truncation) are
// not part of the export view.
type SegmentInfo struct {
	Seq  int64
	Size int64
}

// Manifest is a consistent point-in-time view of the store's segments,
// valid until the next compaction (Generation identifies the view).
// CfgEcho lets a joiner reject a donor running a different optimizer
// configuration before moving any bytes.
type Manifest struct {
	Generation uint64
	CfgEcho    string
	Segments   []SegmentInfo
}

// ExportManifest returns the current export view: every non-empty
// segment with its valid-frame prefix length, stamped with the
// compaction generation.
func (s *Store) ExportManifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Manifest{Generation: s.generation, CfgEcho: s.opts.CfgEcho}
	seqs := make([]int64, 0, len(s.segments))
	for seq := range s.segments {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if size := s.segments[seq].size; size > 0 {
			m.Segments = append(m.Segments, SegmentInfo{Seq: seq, Size: size})
		}
	}
	return m
}

// ReadSegment returns up to n bytes of segment seq starting at off,
// clamped to the segment's recorded size (n <= 0 means "to the end of
// the recorded prefix"). gen must be the generation of the manifest
// the caller is exporting under; a mismatch — or a segment deleted by
// a compaction that lands between the check and the read — returns
// ErrExportStale so the caller restarts from a fresh manifest instead
// of mixing bytes from two generations. Reads go through a fresh
// read-only handle outside the store lock, so exports never stall the
// writer.
func (s *Store) ReadSegment(gen uint64, seq, off, n int64) ([]byte, error) {
	s.mu.Lock()
	if gen != s.generation {
		s.mu.Unlock()
		return nil, ErrExportStale
	}
	var size int64
	seg, ok := s.segments[seq]
	if ok {
		size = seg.size
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: export: unknown segment %d", seq)
	}
	if off < 0 || off > size {
		return nil, fmt.Errorf("store: export: segment %d offset %d outside [0,%d]", seq, off, size)
	}
	if n <= 0 || off+n > size {
		n = size - off
	}
	if n == 0 {
		return []byte{}, nil
	}
	f, err := s.fs.Open(filepath.Join(s.opts.Dir, segName(seq)))
	if err != nil {
		return nil, s.exportErrLocked(gen, err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, s.exportErrLocked(gen, err)
	}
	return buf, nil
}

// exportErrLocked classifies an export read failure: if the generation
// advanced underneath the read (compaction deleted the file), the
// caller gets the retryable ErrExportStale; otherwise the I/O error
// surfaces as-is.
func (s *Store) exportErrLocked(gen uint64, err error) error {
	s.mu.Lock()
	stale := gen != s.generation
	s.mu.Unlock()
	if stale {
		return ErrExportStale
	}
	return err
}

// ValidFrames scans data as a sequence of store frames and returns the
// byte length of the longest whole-frame prefix plus the number of
// frames in it: the joiner's per-chunk verification step. A frame
// counts only if its CRC32C matches and its payload parses
// structurally (tombstones included — they carry poison markings that
// must transfer). Config-echo and codec-version screening is left to
// the joiner's own startup scan, which already classifies those.
func ValidFrames(data []byte) (n int64, frames int) {
	off := int64(0)
	for int64(len(data))-off >= frameHeaderLen {
		payloadLen := int64(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeaderLen + payloadLen
		if end > int64(len(data)) {
			break
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			break
		}
		if _, _, _, ok := parseFrame(payload); !ok {
			break
		}
		off = end
		frames++
	}
	return off, frames
}

// SegmentFileName returns the on-disk file name of segment seq — the
// name a bootstrapping joiner writes pulled segments under so the next
// store scan indexes them.
func SegmentFileName(seq int64) string { return segName(seq) }

// Generation returns the store's current compaction generation.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}
