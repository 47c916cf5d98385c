package store

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/snapcodec"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/{record.frame,tombstone.frame,checkpoint.moqc} (only to record a deliberate format change)")

// The golden store: one record, with every key set, in segment 1; one
// tombstone in segment 2; the checkpoint Close leaves over both.
const (
	goldenEcho   = "3x3|golden" // the echo of snapcodec's golden record
	goldenFP     = "fp-golden"
	goldenCanon  = "canon-golden"
	goldenStruct = "struct-golden"
	goldenTomb   = "fp-poisoned"
)

var (
	goldenPerm = []int{1, 0}
	goldenHot  = []string{goldenFP, goldenTomb}
	goldenDir  = map[string]string{ // file in a store directory → golden file
		segName(1):     "record.frame",
		segName(2):     "tombstone.frame",
		checkpointName: "checkpoint.moqc",
	}
)

// writeGoldenStore writes the golden store into dir through the public
// write path: a Put rolled into segment 1 on its own (MaxSegmentBytes 1
// rolls before every frame but the first), a Quarantine into segment
// 2, and Close with the hot set.
func writeGoldenStore(t *testing.T, dir string, snap *core.Snapshot) {
	t.Helper()
	s, err := Open(Options{Dir: dir, CfgEcho: goldenEcho, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.PutBlocking(goldenFP, goldenCanon, goldenStruct, goldenPerm, snap)
	s.Quarantine(goldenTomb)
	if err := s.Close(goldenHot...); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFormats pins the store's on-disk formats: a record frame
// (non-empty canonical and structural keys, a perm, statistics epoch
// 7), a tombstone frame and a checkpoint over two segments with a hot
// set, each as bytes written once. Each golden file decodes to the keys
// it was written with, and writing the same store again — from the
// snapshot decoded out of the golden frame — reproduces every file
// byte for byte; a store opened on the golden files adopts them whole
// and its Close writes the same checkpoint back.
func TestGoldenFormats(t *testing.T) {
	if *updateGolden {
		blob, err := os.ReadFile(filepath.Join("..", "snapcodec", "testdata", "record.moqs"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapcodec.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writeGoldenStore(t, dir, snap)
		for name, golden := range goldenDir {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", golden), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := map[string][]byte{}
	for name, file := range goldenDir {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		golden[name] = data
	}

	// Decode the two frames.
	payload, ok := openFrame(golden[segName(1)])
	if !ok {
		t.Fatal("record frame fails its length or checksum")
	}
	rec, echo, blob, ok := parseFrame(payload)
	if !ok || rec.FP != goldenFP || rec.CanonFP != goldenCanon || rec.StructFP != goldenStruct ||
		!slices.Equal(rec.Perm, goldenPerm) || rec.StatsEpoch != 7 || echo != goldenEcho || len(blob) == 0 {
		t.Fatalf("record frame parses to %+v, echo %q, %d-byte blob (ok %v)", rec, echo, len(blob), ok)
	}
	recBlob := blob
	snap, err := snapcodec.Decode(recBlob)
	if err != nil {
		t.Fatalf("record frame's snapshot: %v", err)
	}
	if snap.CfgEcho() != goldenEcho || snap.StatsEpoch() != 7 {
		t.Fatalf("record frame's snapshot: echo %q, statistics epoch %d", snap.CfgEcho(), snap.StatsEpoch())
	}
	if payload, ok = openFrame(golden[segName(2)]); !ok {
		t.Fatal("tombstone frame fails its length or checksum")
	}
	tomb, echo, blob, ok := parseFrame(payload)
	if !ok || tomb.FP != goldenTomb || tomb.CanonFP != "" || tomb.StructFP != "" || tomb.Perm != nil ||
		tomb.StatsEpoch != 0 || echo != goldenEcho || len(blob) != 0 {
		t.Fatalf("tombstone frame parses to %+v, echo %q, %d-byte blob (ok %v)", tomb, echo, len(blob), ok)
	}

	// Re-encode: the same writes produce the same bytes.
	dir := t.TempDir()
	writeGoldenStore(t, dir, snap)
	for name, want := range golden {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wrote %d bytes that differ from the golden %s's %d", name, len(got), goldenDir[name], len(want))
		}
	}

	// Decode the checkpoint: a store opened on the golden files adopts
	// both segments and scans nothing.
	dir = t.TempDir()
	for name, data := range golden {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Options{Dir: dir, CfgEcho: goldenEcho, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.AdoptedSegments != 2 || st.AdoptedRecords != 1 || st.ScanBytes != 0 || st.Tombstones != 1 ||
		st.LiveRecords != 1 || st.MaxStatsEpoch != 7 {
		t.Fatalf("golden checkpoint adopted as %+v", st)
	}
	if !slices.Equal(s.Hot(), goldenHot) {
		t.Fatalf("hot set %v, want %v", s.Hot(), goldenHot)
	}
	for _, q := range []struct {
		t   Tier
		key string
	}{{TierExact, goldenFP}, {TierCanon, goldenCanon}, {TierStruct, goldenStruct}} {
		got, atOpen, ok := s.Find(q.t, q.key)
		if !ok || !atOpen || got.FP != goldenFP || got.CanonFP != goldenCanon || got.StructFP != goldenStruct ||
			!slices.Equal(got.Perm, goldenPerm) || got.StatsEpoch != 7 {
			t.Fatalf("Find(%d, %q) = %+v, %v, %v", q.t, q.key, got, atOpen, ok)
		}
	}
	if got, err := s.Load(goldenFP); err != nil || !bytes.Equal(got, recBlob) {
		t.Fatalf("Load(%q): %d bytes, %v", goldenFP, len(got), err)
	}
	if _, err := s.Load(goldenTomb); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Load(%q) of the quarantined fingerprint: %v", goldenTomb, err)
	}
	if err := s.Close(s.Hot()...); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden[checkpointName]) {
		t.Fatalf("the adopted store's Close wrote a %d-byte checkpoint that differs from the golden %d", len(got), len(golden[checkpointName]))
	}
}
