package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/snapcodec"
)

// TestHintRoundTrip pins the hint file's contract at the store level:
// the list comes back in the order it was written, survives a reopen,
// is replaced whole by the next write, and reads as empty — never as an
// error, never as a partial list — when it is for another configuration
// or any byte of it is damaged. (The service-level fault matrix covers
// what a boot does with each outcome.)
func TestHintRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	if got := s.Hint(); got != nil {
		t.Fatalf("fresh directory has a hint: %v", got)
	}
	want := []string{"fpC", "fpA", "fpB"}
	if err := s.WriteHint(want); err != nil {
		t.Fatal(err)
	}
	if got := s.Hint(); !slices.Equal(got, want) {
		t.Fatalf("hint read back as %v, want %v", got, want)
	}
	if err := s.WriteHint([]string{"fpA"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := openTestStore(t, dir, nil)
	if got := re.Hint(); !slices.Equal(got, []string{"fpA"}) {
		t.Fatalf("after reopen the hint reads %v, want the second write alone", got)
	}
	if st := re.Stats(); st.Segments != 0 || st.Corrupted != 0 {
		t.Errorf("the scan took the hint file for store data: %+v", st)
	}
	re.Close()

	other := openTestStore(t, dir, func(o *Options) { o.CfgEcho = "3x9|another-build" })
	if got := other.Hint(); got != nil {
		t.Errorf("a store of another configuration accepted the hint: %v", got)
	}
	other.Close()

	path := filepath.Join(dir, hintName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir, nil)
	defer s.Close()
	for i := range whole {
		damaged := bytes.Clone(whole)
		damaged[i] ^= 0x04
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := s.Hint(); got != nil {
			t.Fatalf("hint with byte %d flipped read as %v", i, got)
		}
		if err := os.WriteFile(path, whole[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := s.Hint(); got != nil {
			t.Fatalf("hint cut to %d bytes read as %v", i, got)
		}
	}
}

// TestReplayIsWalkLoadDecode: Replay yields the records Walk lists, in
// Walk's order and with Walk's keys, each with the snapshot Load and
// snapcodec.Decode produce for its fingerprint; Walk itself reads
// nothing, and every Load owns its bytes.
func TestReplayIsWalkLoadDecode(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put("fpA", "canonA", "structA", []int{1, 0}, testSnapshot(t, "Q4"))
	s.Put("fpB", "canonB", "structB", nil, testSnapshot(t, "Q12"))
	s.Put("fpA", "canonA2", "structA", []int{0, 1}, testSnapshot(t, "Q14")) // supersedes, moves to the end
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil)
	s = openTestStore(t, dir, func(o *Options) { o.FS = inj })
	defer s.Close()

	var replayed, walked []Record
	if err := s.Replay(func(r Record) bool { replayed = append(replayed, r); return true }); err != nil {
		t.Fatal(err)
	}
	opens, reads := inj.Count(faultfs.OpOpen), inj.Count(faultfs.OpReadAt)
	s.Walk(func(r Record) bool { walked = append(walked, r); return true })
	if inj.Count(faultfs.OpOpen) != opens || inj.Count(faultfs.OpReadAt) != reads {
		t.Error("Walk touched the filesystem")
	}
	if len(replayed) != 2 || len(walked) != 2 || walked[0].FP != "fpB" || walked[1].FP != "fpA" {
		t.Fatalf("replayed %d and walked %d records, want [fpB fpA] twice", len(replayed), len(walked))
	}
	var blobs [][]byte
	for i, w := range walked {
		r := replayed[i]
		if w.Snap != nil || r.Snap == nil {
			t.Fatalf("record %d: Walk set Snap or Replay left it nil", i)
		}
		if w.FP != r.FP || w.CanonFP != r.CanonFP || w.StructFP != r.StructFP ||
			w.StatsEpoch != r.StatsEpoch || !slices.Equal(w.Perm, r.Perm) {
			t.Errorf("record %d keys differ: %+v vs %+v", i, w, r)
		}
		blob, err := s.Load(w.FP)
		if err != nil {
			t.Fatal(err)
		}
		again, err := snapcodec.Encode(nil, r.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("record %d: what Load returns is not the snapshot Replay decoded", i)
		}
		blobs = append(blobs, blob)
	}
	if w := walked[1]; w.CanonFP != "canonA2" || !slices.Equal(w.Perm, []int{0, 1}) {
		t.Errorf("fpA walked with keys %+v, want the superseding record's", w)
	}
	// Scribbling over one load's bytes must not reach another's, nor a
	// later load of the same record.
	before := bytes.Clone(blobs[1])
	for i := range blobs[0] {
		blobs[0][i] = 0xff
	}
	if again, err := s.Load("fpB"); err != nil || bytes.Equal(again, blobs[0]) || !bytes.Equal(before, blobs[1]) {
		t.Errorf("loaded records share a buffer (reload: %v)", err)
	}
	if _, err := s.Load("never-put"); !errors.Is(err, ErrNotStored) {
		t.Errorf("Load of an unknown fingerprint: %v, want ErrNotStored", err)
	}
}
