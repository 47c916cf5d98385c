package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// The shutdown hint (DESIGN.md D19) is one small file beside the
// segments naming the fingerprints the previous life actually used, so
// the next boot can load and decode exactly those before it reports
// ready and leave every other record on disk. It is advisory end to
// end: written without an fsync, read without trust. A missing, torn,
// corrupt or foreign-config hint reads as empty, a stale one names
// fingerprints the caller no longer finds live, and in every case the
// only thing at stake is whether an entry's one load and decode happen
// before /readyz or on its first hit.
//
// Layout: one frame as in the segments (u32 payload length | u32 CRC32C
// | payload), payload: cfgEcho string | count | count fingerprint
// strings.
const hintName = "hint.moqh"

// WriteHint replaces the hint file with fps (most recently used first):
// a temporary file renamed over the old hint, so a crash at any point
// leaves either the previous life's list or this one. A degraded store
// writes nothing, and a failed write changes no store state — hint I/O
// never counts toward degraded mode.
func (s *Store) WriteHint(fps []string) error {
	s.mu.Lock()
	degraded := s.degraded
	s.mu.Unlock()
	if degraded {
		return nil
	}
	payload := appendString(nil, s.opts.CfgEcho)
	payload = binary.AppendUvarint(payload, uint64(len(fps)))
	for _, fp := range fps {
		payload = appendString(payload, fp)
	}
	path := filepath.Join(s.opts.Dir, hintName)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: hint: %w", err)
	}
	_, err = f.Write(sealFrame(payload))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp) // best effort: a leftover tmp is overwritten by the next WriteHint
		return fmt.Errorf("store: hint: %w", err)
	}
	return nil
}

// Hint returns the fingerprints of the hint file in the order WriteHint
// got them, or nil when the file is absent, fails its checksum, does
// not parse to its last byte or echoes a different configuration. The
// fingerprints are not checked against the index: the caller applies
// them to the records Walk yields, so dead names fall away there.
func (s *Store) Hint() []string {
	data, err := s.fs.ReadFile(filepath.Join(s.opts.Dir, hintName))
	if err != nil {
		return nil
	}
	payload, ok := openFrame(data)
	if !ok {
		return nil
	}
	echo, rest, ok := readString(payload)
	if !ok || echo != s.opts.CfgEcho {
		return nil
	}
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > uint64(len(rest)) {
		return nil
	}
	rest = rest[sz:]
	fps := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var fp string
		if fp, rest, ok = readString(rest); !ok {
			return nil
		}
		fps = append(fps, fp)
	}
	if len(rest) != 0 {
		return nil
	}
	return fps
}
