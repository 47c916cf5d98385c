package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

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

// TestReplayEncodedIsTheWalkUnderReplay: both walks yield the same
// records in the same order, and decoding what ReplayEncoded hands out
// gives what Replay hands out; each encoded record owns its bytes.
func TestReplayEncodedIsTheWalkUnderReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put("fpA", "canonA", "structA", []int{1, 0}, testSnapshot(t, "Q4"))
	s.Put("fpB", "canonB", "structB", nil, testSnapshot(t, "Q12"))
	s.Put("fpA", "canonA2", "structA", []int{0, 1}, testSnapshot(t, "Q14")) // supersedes, moves to the end
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir, nil)
	defer s.Close()

	var decoded, encoded []Record
	if err := s.Replay(func(r Record) bool { decoded = append(decoded, r); return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayEncoded(func(r Record) bool { encoded = append(encoded, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || len(encoded) != 2 || decoded[0].FP != "fpB" || decoded[1].FP != "fpA" {
		t.Fatalf("replayed %d decoded and %d encoded records, want [fpB fpA] twice", len(decoded), len(encoded))
	}
	for i, e := range encoded {
		d := decoded[i]
		if e.Snap != nil || d.Blob != nil || d.Snap == nil {
			t.Fatalf("record %d: encoded walk set Snap or decoded walk left Blob", i)
		}
		if e.FP != d.FP || e.CanonFP != d.CanonFP || e.StructFP != d.StructFP ||
			e.StatsEpoch != d.StatsEpoch || !slices.Equal(e.Perm, d.Perm) {
			t.Errorf("record %d keys differ: %+v vs %+v", i, e, d)
		}
		again, err := snapcodec.Encode(nil, d.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, e.Blob) {
			t.Errorf("record %d: the encoded walk's blob is not the decoded walk's snapshot", i)
		}
	}
	// Scribbling over one record's bytes must not reach the other's.
	before := bytes.Clone(encoded[1].Blob)
	for i := range encoded[0].Blob {
		encoded[0].Blob[i] = 0xff
	}
	if !bytes.Equal(before, encoded[1].Blob) {
		t.Error("two replayed records share a buffer")
	}
}
