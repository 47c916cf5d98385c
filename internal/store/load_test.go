package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/snapcodec"
)

// wireOf returns block's snapshot as Load hands it out.
func wireOf(t *testing.T, block string) []byte {
	t.Helper()
	blob, err := snapcodec.Encode(nil, testSnapshot(t, block))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLoadVerifiesFrame: Load hands a frame out only if its length, its
// CRC32C and its fingerprint check out, and its error says whose fault a
// refusal is — ErrCorrupt for bytes it read and will not vouch for,
// ErrNotStored for a record that is not live, the filesystem's own error
// (neither of the two) for a read that failed or came up short.
func TestLoadVerifiesFrame(t *testing.T) {
	eio := errors.New("injected: input/output error")
	ioError := func(err error) bool {
		return err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotStored)
	}
	for _, tc := range []struct {
		name string
		// damage runs on the closed directory; frame is the length of each
		// of the two equal frames in its one segment (fpA's, then fpB's).
		damage func(t *testing.T, path string, frame int64)
		script faultfs.Script
		wantA  func(error) bool
	}{
		{name: "intact", wantA: func(err error) bool { return err == nil }},
		{name: "flipped payload byte", wantA: func(err error) bool { return errors.Is(err, ErrCorrupt) },
			damage: func(t *testing.T, path string, frame int64) {
				rewrite(t, path, func(b []byte) []byte { b[frame/2] ^= 0x04; return b })
			}},
		{name: "flipped length", wantA: func(err error) bool { return errors.Is(err, ErrCorrupt) },
			damage: func(t *testing.T, path string, frame int64) {
				rewrite(t, path, func(b []byte) []byte { b[0] ^= 0x01; return b })
			}},
		{name: "another fingerprint's frame", wantA: func(err error) bool { return errors.Is(err, ErrCorrupt) },
			damage: func(t *testing.T, path string, frame int64) {
				rewrite(t, path, func(b []byte) []byte { return append(bytes.Clone(b[frame:]), b[:frame]...) })
			}},
		{name: "open fails", wantA: ioError,
			script: func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
				if op == faultfs.OpOpen {
					return faultfs.Fault{Err: eio}
				}
				return faultfs.Fault{}
			}},
		{name: "read fails", wantA: ioError,
			script: func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
				if op == faultfs.OpReadAt {
					return faultfs.Fault{Err: eio}
				}
				return faultfs.Fault{}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, nil)
			s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
			s.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, testSnapshot(t, "Q4"), false)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			inj := faultfs.NewInjector(nil)
			s = openTestStore(t, dir, func(o *Options) { o.FS = inj })
			defer s.Close()
			path := filepath.Join(dir, segName(1))
			// After the scan, so that the scan accepts what Load is to refuse.
			if tc.damage != nil {
				tc.damage(t, path, s.segments[1].size/2)
			}
			inj.SetScript(tc.script)
			blob, err := s.Load("fpA")
			if !tc.wantA(err) {
				t.Errorf("Load(fpA): %v", err)
			}
			if err == nil && !bytes.Equal(blob, wireOf(t, "Q4")) {
				t.Error("Load(fpA) returned other bytes than the snapshot's encoding")
			}
			if _, err := s.Load("fpC"); !errors.Is(err, ErrNotStored) {
				t.Errorf("Load of a fingerprint never put: %v, want ErrNotStored", err)
			}
			if st := s.Stats(); st.Corrupted != 0 || st.LiveRecords != 2 || st.Degraded {
				t.Errorf("a Load changed the store's state: %+v", st)
			}
		})
	}

	t.Run("short read", func(t *testing.T) {
		dir := t.TempDir()
		s := openTestStore(t, dir, nil)
		defer s.Close()
		s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, segName(1)), s.segments[1].size-9); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("fpA"); !ioError(err) {
			t.Errorf("Load of a record cut short on disk: %v, want the read's error", err)
		}
	})

	t.Run("quarantined", func(t *testing.T) {
		s := openTestStore(t, t.TempDir(), nil)
		defer s.Close()
		s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.Quarantine("fpA")
		if _, err := s.Load("fpA"); !errors.Is(err, ErrNotStored) {
			t.Errorf("Load of a quarantined record: %v, want ErrNotStored", err)
		}
	})

	// Degraded mode pauses writes; what is on disk still loads.
	t.Run("degraded", func(t *testing.T) {
		inj := faultfs.NewInjector(nil)
		s := openTestStore(t, t.TempDir(), func(o *Options) {
			o.FS = inj
			o.FailThreshold = 1
			o.ProbeInterval = time.Hour
		})
		defer s.Close()
		s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		inj.FailOps(syscall.ENOSPC, faultfs.OpWrite)
		s.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, testSnapshot(t, "Q12"), false)
		_ = s.Flush()
		if !s.Stats().Degraded {
			t.Fatal("the store did not degrade")
		}
		if blob, err := s.Load("fpA"); err != nil || !bytes.Equal(blob, wireOf(t, "Q4")) {
			t.Errorf("a degraded store refused a load: %v", err)
		}
		if _, err := s.Load("fpB"); !errors.Is(err, ErrNotStored) {
			t.Errorf("Load of the record the outage lost: %v, want ErrNotStored", err)
		}
	})
}

// rewrite replaces the file's contents with fn's.
func rewrite(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRacesWriter hammers Load from four goroutines while the writer
// re-persists the same fingerprints through roll-overs and compactions
// and quarantines one of them now and then. Whatever the interleaving, a
// load answers with its fingerprint's own bytes or ErrNotStored: never
// another record's frame, never an error a compaction deleting the
// segment underneath it caused. Run under -race.
func TestLoadRacesWriter(t *testing.T) {
	blocks := []string{"Q4", "Q12", "Q14", "Q3"}
	want := map[string][]byte{}
	for i, b := range blocks {
		want[fmt.Sprintf("fp%d", i)] = wireOf(t, b)
	}
	s := openTestStore(t, t.TempDir(), func(o *Options) {
		o.MaxSegmentBytes = 64 << 10
		o.MinCompactBytes = 1
		o.CompactFraction = 0.4
	})
	defer s.Close()

	stop := make(chan struct{})
	var loads, notStored atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fp := fmt.Sprintf("fp%d", i%len(blocks))
				blob, err := s.Load(fp)
				switch {
				case errors.Is(err, ErrNotStored):
					notStored.Add(1)
				case err != nil:
					t.Errorf("Load(%s): %v", fp, err)
					return
				case !bytes.Equal(blob, want[fp]):
					t.Errorf("Load(%s) returned another record's bytes", fp)
					return
				default:
					loads.Add(1)
				}
			}
		}(g)
	}
	for i := 0; i < 400; i++ {
		fp := fmt.Sprintf("fp%d", i%len(blocks))
		if i%37 == 36 {
			s.Quarantine(fp)
		}
		s.Put(query.Keys{FP: fp, CanonFP: "canon"}, testSnapshot(t, blocks[i%len(blocks)]), true)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.Compactions < 3 || st.Tombstones == 0 || loads.Load() == 0 {
		t.Fatalf("the hammer lost its coverage: %d compactions, %d tombstones, %d loads (%d not stored)",
			st.Compactions, st.Tombstones, loads.Load(), notStored.Load())
	}
	for fp, blob := range want {
		if got, err := s.Load(fp); err != nil || !bytes.Equal(got, blob) {
			t.Errorf("after the hammer, Load(%s): %v", fp, err)
		}
	}
}

// TestLoadDoesNotWaitForTheWriter: with the writer parked inside an fsync
// — holding the store mutex, as it does through every append, sync and
// compaction — Load and Walk complete.
func TestLoadDoesNotWaitForTheWriter(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := openTestStore(t, t.TempDir(), func(o *Options) { o.FS = inj })
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	inj.SetScript(func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
		if op == faultfs.OpSync {
			close(entered)
			<-release
		}
		return faultfs.Fault{}
	})
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	<-entered
	inj.SetScript(nil)

	done := make(chan error, 1)
	go func() {
		s.Walk(func(Record) bool { return true })
		_, err := s.Load("fpA")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Load beside a parked writer: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("Load or Walk waited for the store mutex the parked fsync holds")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPutDoesNotWaitForTheWriter: with the writer parked inside an
// fsync and its one-deep queue full, a Put sheds its record at once and
// counts the drop — it does not wait for the store mutex the fsync
// holds.
func TestPutDoesNotWaitForTheWriter(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := openTestStore(t, t.TempDir(), func(o *Options) { o.FS = inj; o.QueueDepth = 1 })
	snap := testSnapshot(t, "Q4")
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	inj.SetScript(func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
		if op == faultfs.OpSync {
			close(entered)
			<-release
		}
		return faultfs.Fault{}
	})
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	<-entered
	inj.SetScript(nil)

	done := make(chan struct{})
	go func() {
		s.Put(query.Keys{FP: "fpB"}, snap, false) // fills the queue
		s.Put(query.Keys{FP: "fpC"}, snap, false) // finds it full
		close(done)
	}()
	select {
	case <-done:
		if got := s.Instruments().Dropped.Value(); got != 1 {
			t.Errorf("a Put beside a parked writer dropped %d records, want 1", got)
		}
	case <-time.After(time.Second):
		t.Error("a shedding Put waited for the store mutex the parked fsync holds")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
