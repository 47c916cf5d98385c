package store

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// epochSnapshot builds a fresh (unshared) converged snapshot stamped
// with a statistics epoch — the memoized testSnapshot must not be
// mutated, its epoch label would leak into other tests.
func epochSnapshot(t *testing.T, block string, epoch uint64) *core.Snapshot {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), block)
	if !ok {
		t.Fatalf("unknown block %s", block)
	}
	cfg := testConfig()
	opt := core.MustNewOptimizer(blk.Query, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	snap := opt.Snapshot()
	snap.SetStatsEpoch(epoch)
	return snap
}

// TestStoreStatsEpochRoundTrip pins the frame-v2 drift metadata: the
// structural fingerprint and statistics epoch survive persist + reopen,
// the store tracks the maximum epoch it has ever indexed (feeding the
// service's EnsureAtLeast on replay), and Stats counts records indexed
// under superseded epochs.
func TestStoreStatsEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA", StructFP: "structA", Perm: []int{1, 0}}, epochSnapshot(t, "Q4", 3), false)
	s.Put(query.Keys{FP: "fpB", CanonFP: "canonB", StructFP: "structB"}, epochSnapshot(t, "Q12", 7), false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MaxStatsEpoch != 7 || st.StaleEpoch != 1 {
		t.Fatalf("after puts: MaxStatsEpoch=%d StaleEpoch=%d, want 7/1 (%+v)", st.MaxStatsEpoch, st.StaleEpoch, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir, nil)
	defer re.Close()
	if got := re.MaxStatsEpoch(); got != 7 {
		t.Fatalf("reopened MaxStatsEpoch = %d, want 7", got)
	}
	if st := re.Stats(); st.StaleEpoch != 1 {
		t.Fatalf("reopened StaleEpoch = %d, want 1", st.StaleEpoch)
	}
	got := replayAll(t, re)
	a, ok := got["fpA"]
	if !ok || a.StructFP != "structA" || a.StatsEpoch != 3 {
		t.Fatalf("record fpA drift metadata mangled: %+v", a)
	}
	if a.Snap.StatsEpoch() != 3 {
		t.Fatalf("replayed snapshot epoch = %d, want 3", a.Snap.StatsEpoch())
	}
	if b := got["fpB"]; b.StructFP != "structB" || b.StatsEpoch != 7 {
		t.Fatalf("record fpB drift metadata mangled: %+v", b)
	}

	// A newer epoch arriving live raises the maximum and stales both
	// older records.
	re.Put(query.Keys{FP: "fpC", CanonFP: "canonC", StructFP: "structC"}, epochSnapshot(t, "Q13", 9), true)
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.MaxStatsEpoch != 9 || st.StaleEpoch != 2 {
		t.Fatalf("after live put: MaxStatsEpoch=%d StaleEpoch=%d, want 9/2", st.MaxStatsEpoch, st.StaleEpoch)
	}
}
