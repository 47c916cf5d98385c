package store

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/query"
)

// TestStoreQuarantineTombstone checks the poison-marking contract
// (DESIGN.md D14): Quarantine kills the live record immediately, the
// tombstone survives restarts, and a fresh post-quarantine Put of the
// same fingerprint loads normally (the lineage resets).
func TestStoreQuarantineTombstone(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	snapA, snapB := testSnapshot(t, "Q4"), testSnapshot(t, "Q12")
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, snapA, false)
	s.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, snapB, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Quarantine("fpA")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tombstones != 1 || st.LiveRecords != 1 {
		t.Fatalf("after quarantine: %+v", st)
	}
	if got := replayAll(t, s); len(got) != 1 || got["fpB"].Snap == nil {
		t.Fatalf("replay after quarantine: %v records", len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The scan must apply the tombstone: fpA's record is on disk but
	// dead, and must not reach Replay on any future restart.
	re := openTestStore(t, dir, nil)
	st = re.Stats()
	if st.Loaded != 1 || st.Tombstones != 1 || st.LiveRecords != 1 {
		t.Fatalf("after reopen: %+v", st)
	}
	if got := replayAll(t, re); len(got) != 1 || got["fpB"].Snap == nil {
		t.Fatalf("replay after reopen: %v records", len(got))
	}

	// A fresh re-export (the cold re-optimization's snapshot) writes
	// after the tombstone and is live again.
	re.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, snapA, false)
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openTestStore(t, dir, nil)
	defer re2.Close()
	if st := re2.Stats(); st.LiveRecords != 2 {
		t.Fatalf("post-quarantine re-export did not load: %+v", st)
	}
	if got := replayAll(t, re2); got["fpA"].Snap == nil {
		t.Fatal("post-quarantine re-export missing from replay")
	}
}

// TestStoreDegradedEnterAndDrop drives the store into degraded mode
// with scripted write failures and checks that further Puts are
// dropped (counted, no disk I/O attempted) while the next probe is not
// due. The probe interval is set far in the future so the drop path is
// deterministic.
func TestStoreDegradedEnterAndDrop(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := openTestStore(t, t.TempDir(), func(o *Options) {
		o.FS = inj
		o.FailThreshold = 2
		o.ProbeInterval = time.Hour
	})
	defer s.Close()
	inj.FailOps(syscall.ENOSPC, faultfs.OpWrite)
	snap := testSnapshot(t, "Q4")

	s.Put(query.Keys{FP: "fp1", CanonFP: "c"}, snap, false)
	s.Put(query.Keys{FP: "fp2", CanonFP: "c"}, snap, false)
	s.Put(query.Keys{FP: "fp3", CanonFP: "c"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedEnters != 1 {
		t.Fatalf("not degraded after %d write failures: %+v", s.opts.FailThreshold, st)
	}
	if st.WriteErrors != 2 {
		t.Errorf("write errors %d, want 2 (the failed appends before the flip)", st.WriteErrors)
	}
	if st.DegradedDrops != 1 || st.Persisted != 0 {
		t.Errorf("drops %d persisted %d, want 1/0 (third Put dropped without touching disk)",
			st.DegradedDrops, st.Persisted)
	}
	writesBefore := inj.Count(faultfs.OpWrite)
	s.Put(query.Keys{FP: "fp4", CanonFP: "c"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := inj.Count(faultfs.OpWrite); got != writesBefore {
		t.Errorf("degraded store touched the disk: %d writes, want %d", got, writesBefore)
	}
	if st := s.Stats(); st.DegradedDrops != 2 {
		t.Errorf("drops %d, want 2", st.DegradedDrops)
	}
}

// TestStoreDegradedProbeRecover checks the full fault cycle: enter
// degraded mode, fail a probe (backoff doubles), heal the disk, and
// recover on a later probe — after which records persist again.
func TestStoreDegradedProbeRecover(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := openTestStore(t, t.TempDir(), func(o *Options) {
		o.FS = inj
		o.FailThreshold = 1
		o.ProbeInterval = time.Millisecond
		o.ProbeMaxInterval = 4 * time.Millisecond
	})
	defer s.Close()
	inj.FailOps(syscall.ENOSPC, faultfs.OpWrite)
	snap := testSnapshot(t, "Q4")

	s.Put(query.Keys{FP: "lost", CanonFP: "c"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); !st.Degraded {
		t.Fatalf("threshold 1 did not degrade: %+v", st)
	}
	// Past the (jittered, <= 6ms) backoff the next append is a probe;
	// the disk is still broken, so it fails and the store stays down.
	time.Sleep(10 * time.Millisecond)
	s.Put(query.Keys{FP: "probe-fail", CanonFP: "c"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Probes == 0 || !st.Degraded {
		t.Fatalf("failed probe not counted or exited degraded mode: %+v", st)
	}

	inj.SetScript(nil) // the disk heals
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("store never recovered after heal: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
		s.Put(query.Keys{FP: "recovered", CanonFP: "c"}, snap, false)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.Persisted == 0 {
		t.Fatalf("recovery persisted nothing: %+v", st)
	}
	got := replayAll(t, s)
	if got["recovered"].Snap == nil {
		t.Fatal("post-recovery record not replayable")
	}
	if got["lost"].Snap != nil {
		t.Error("record written into the outage should be lost, not resurrected")
	}
	// Persistence is fully back: a further Put lands without drops.
	drops := st.DegradedDrops
	s.Put(query.Keys{FP: "after", CanonFP: "c"}, snap, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DegradedDrops != drops || st.Degraded {
		t.Errorf("store still shedding after recovery: %+v", st)
	}
}

// TestStoreSyncFailureCountsTowardDegraded checks that fsync failures
// feed the same detector as write failures: an error the flush path
// reports must also move the store toward (and into) degraded mode.
func TestStoreSyncFailureCountsTowardDegraded(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s := openTestStore(t, t.TempDir(), func(o *Options) {
		o.FS = inj
		o.FailThreshold = 1
		o.ProbeInterval = time.Hour
	})
	defer s.Close()
	s.Put(query.Keys{FP: "fp", CanonFP: "c"}, testSnapshot(t, "Q4"), false)
	inj.FailOps(syscall.EIO, faultfs.OpSync)
	if err := s.Flush(); err == nil {
		t.Fatal("flush swallowed the fsync failure")
	}
	if st := s.Stats(); !st.Degraded || st.DegradedEnters != 1 {
		t.Fatalf("sync failure did not degrade: %+v", st)
	}
}
