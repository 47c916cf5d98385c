package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/query"
	"repro/internal/snapcodec"
	"repro/internal/workload"
)

func testConfig() core.Config {
	return core.Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 2,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
}

func testEcho(t *testing.T, cfg core.Config) string {
	t.Helper()
	echo, err := core.ConfigFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return echo
}

// testSnapshot converges one optimizer per block and memoizes the
// snapshots (building them dominates the test runtime).
var snapCache = map[string]*core.Snapshot{}

func testSnapshot(t *testing.T, block string) *core.Snapshot {
	t.Helper()
	if s, ok := snapCache[block]; ok {
		return s
	}
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), block)
	if !ok {
		t.Fatalf("unknown block %s", block)
	}
	cfg := testConfig()
	opt := core.MustNewOptimizer(blk.Query, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	snapCache[block] = opt.Snapshot()
	return snapCache[block]
}

func openTestStore(t *testing.T, dir string, mutate func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, CfgEcho: testEcho(t, testConfig())}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dropCheckpoint deletes the checkpoint the last Close left, so the next
// Open scans the whole log: what a test of the scan's own rules needs
// (TestCheckpointFaultMatrix covers damage behind a checkpoint).
func dropCheckpoint(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal(err)
	}
}

// replayAll drains the store's live records into a map.
func replayAll(t *testing.T, s *Store) map[string]Record {
	t.Helper()
	got := map[string]Record{}
	if err := s.Replay(func(r Record) bool {
		got[r.FP] = r
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStorePersistReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	snapA, snapB := testSnapshot(t, "Q4"), testSnapshot(t, "Q12")
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA", Perm: []int{1, 0}}, snapA, false)
	s.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, snapB, false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Persisted != 2 || st.LiveRecords != 2 {
		t.Fatalf("after put: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir, nil)
	defer re.Close()
	st := re.Stats()
	if st.Loaded != 2 || st.LiveRecords != 2 || st.Rejected != 0 || st.Corrupted != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
	got := replayAll(t, re)
	a, ok := got["fpA"]
	if !ok || a.CanonFP != "canonA" || len(a.Perm) != 2 || a.Perm[0] != 1 {
		t.Fatalf("record fpA mangled: %+v", a)
	}
	if a.Snap.PlanCount() != snapA.PlanCount() || a.Snap.CfgEcho() != snapA.CfgEcho() {
		t.Error("replayed snapshot differs from the persisted one")
	}
	if b := got["fpB"]; b.Snap == nil || b.Snap.PlanCount() != snapB.PlanCount() {
		t.Errorf("record fpB mangled: %+v", b)
	}
}

// TestStoreCountersMatchStats: the lock-free reads a metrics scrape
// takes (the Instruments counter words and Degraded) report the same
// event counters as Stats, which takes the store's lock.
func TestStoreCountersMatchStats(t *testing.T) {
	s := openTestStore(t, t.TempDir(), nil)
	defer s.Close()
	s.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), false)
	s.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, testSnapshot(t, "Q12"), false)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Quarantine("fpB")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	if want.Persisted != 2 || want.Flushes == 0 || want.Tombstones != 1 || want.LiveRecords != 1 {
		t.Fatalf("after puts and a quarantine: %+v", want)
	}
	in := s.Instruments()
	got := want
	got.Persisted, got.Dropped, got.WriteErrors, got.Flushes = in.Persisted.Value(), in.Dropped.Value(), in.WriteErrors.Value(), in.Flushes.Value()
	got.DegradedEnters, got.DegradedDrops = in.DegradedEnters.Value(), in.DegradedDrops.Value()
	got.Probes, got.Tombstones, got.Degraded = in.Probes.Value(), in.Tombstones.Value(), s.Degraded()
	if got != want {
		t.Errorf("lock-free counters %+v, want Stats' counters %+v", got, want)
	}
}

// TestStoreSupersedeAndCompact re-persists one fingerprint until the
// dead fraction forces a compaction, and checks that live records
// survive it while the directory shrinks to one segment.
func TestStoreSupersedeAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(o *Options) {
		o.MinCompactBytes = 1 // compact as soon as the fraction trips
		o.MaxSegmentBytes = 8 << 10
	})
	snap := testSnapshot(t, "Q4")
	keep := testSnapshot(t, "Q12")
	s.Put(query.Keys{FP: "keep", CanonFP: "canonK"}, keep, false)
	for i := 0; i < 8; i++ {
		s.Put(query.Keys{FP: "hot", CanonFP: "canonH"}, snap, false)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 8 supersedes: %+v", st)
	}
	// Supersedes after the last compaction may leave dead bytes, but
	// never past the threshold that would have forced another pass.
	if st.LiveRecords != 2 ||
		float64(st.DeadBytes)/float64(st.DeadBytes+st.LiveBytes) >= 0.5 {
		t.Fatalf("after compaction: %+v", st)
	}
	got := replayAll(t, s)
	if len(got) != 2 || got["hot"].Snap == nil || got["keep"].Snap == nil {
		t.Fatalf("live records lost in compaction: %v", len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// On-disk state must match: compaction deleted the superseded
	// segments (only post-compaction ones remain) and a reopen loads
	// the live records plus at most the post-compaction supersedes.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.moqs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != st.Segments {
		sort.Strings(segs)
		t.Fatalf("directory has %d segments, stats say %d: %v", len(segs), st.Segments, segs)
	}
	re := openTestStore(t, dir, nil)
	defer re.Close()
	if got := replayAll(t, re); len(got) != 2 || got["hot"].Snap == nil || got["keep"].Snap == nil {
		t.Fatalf("reopen after compaction lost records: %d", len(got))
	}
}

// TestStoreSegmentRollover forces tiny segments and checks records
// spread across several files and all replay.
func TestStoreSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(o *Options) {
		o.MaxSegmentBytes = 1 // every record rolls a new segment
	})
	for _, fp := range []string{"a", "b", "c"} {
		s.Put(query.Keys{FP: fp, CanonFP: "canon-" + fp}, testSnapshot(t, "Q4"), false)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("expected ≥3 segments, got %d", len(entries))
	}
	re := openTestStore(t, dir, nil)
	defer re.Close()
	if got := replayAll(t, re); len(got) != 3 {
		t.Fatalf("replayed %d records across segments, want 3", len(got))
	}
}

// TestStoreCorruptionTruncates flips a byte inside the second of three
// records: the scan must keep the first record, drop the rest of that
// segment (truncating the file), and never fail the open.
func TestStoreCorruptionTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	var sizes []int64
	for _, fp := range []string{"a", "b", "c"} {
		s.Put(query.Keys{FP: fp}, testSnapshot(t, "Q4"), false)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		sizes = append(sizes, st.LiveBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[sizes[0]+frameHeaderLen+10] ^= 0xff // inside record b's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dropCheckpoint(t, dir)

	re := openTestStore(t, dir, nil)
	defer re.Close()
	st := re.Stats()
	if st.Loaded != 1 || st.Corrupted == 0 {
		t.Fatalf("after corrupt reopen: %+v", st)
	}
	got := replayAll(t, re)
	if len(got) != 1 || got["a"].Snap == nil {
		t.Fatalf("valid prefix not preserved: %d records", len(got))
	}
	// The segment must have been truncated to the valid prefix.
	if info, err := os.Stat(path); err != nil || info.Size() != sizes[0] {
		t.Fatalf("segment not truncated: size %v, want %d", info.Size(), sizes[0])
	}
}

// TestStoreTornTailTruncates cuts the final record mid-frame (a crash
// during append) and checks the prefix survives.
func TestStoreTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put(query.Keys{FP: "a"}, testSnapshot(t, "Q4"), false)
	s.Put(query.Keys{FP: "b"}, testSnapshot(t, "Q12"), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir, nil)
	defer re.Close()
	if st := re.Stats(); st.Loaded != 1 || st.Corrupted == 0 {
		t.Fatalf("after torn-tail reopen: %+v", st)
	}
	if got := replayAll(t, re); len(got) != 1 || got["a"].Snap == nil {
		t.Fatalf("valid prefix not preserved: %d records", len(got))
	}
}

// TestStoreRejectsConfigDrift reopens a store under a different
// optimizer configuration: every record must be rejected (dead, never
// restored), and a subsequent compaction-eligible store still works.
func TestStoreRejectsConfigDrift(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put(query.Keys{FP: "a"}, testSnapshot(t, "Q4"), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.ResolutionLevels = 5
	re := openTestStore(t, dir, func(o *Options) { o.CfgEcho = testEcho(t, other) })
	defer re.Close()
	st := re.Stats()
	if st.Rejected != 1 || st.Loaded != 0 || st.LiveRecords != 0 {
		t.Fatalf("config drift not rejected: %+v", st)
	}
	if got := replayAll(t, re); len(got) != 0 {
		t.Fatalf("rejected record replayed: %d", len(got))
	}
}

func TestStoreDropsWhenBacklogged(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(o *Options) { o.QueueDepth = 1 })
	snap := testSnapshot(t, "Q4")
	// Flood faster than the writer can drain; with depth 1 some Puts
	// must shed rather than block.
	for i := 0; i < 64; i++ {
		s.Put(query.Keys{FP: "fp"}, snap, false)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops under a full queue: %+v", st)
	}
	if st.Persisted == 0 {
		t.Fatalf("nothing persisted either: %+v", st)
	}
}

// TestStoreRejectsForeignFormatVersion pins the scan-level version
// gate: a record whose snapshot blob carries a different wire-format
// version must be dead on arrival — rejected at scan, not indexed as
// live only to fail at every replay.
func TestStoreRejectsForeignFormatVersion(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put(query.Keys{FP: "a"}, testSnapshot(t, "Q4"), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the record as if a future binary had written it: bump the
	// version inside the snapshot blob and reseal both checksums, so
	// only the version gate can reject it. That binary leaves no
	// checkpoint this one reads.
	dropCheckpoint(t, dir)
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[frameHeaderLen:]
	_, _, blob, ok := parseFrame(payload)
	if !ok {
		t.Fatal("cannot parse own frame")
	}
	binary.LittleEndian.PutUint16(blob[4:], snapcodec.Version+1)
	binary.LittleEndian.PutUint32(blob[len(blob)-4:],
		crc32.Checksum(blob[:len(blob)-4], castagnoli))
	binary.LittleEndian.PutUint32(data[4:], crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir, nil)
	defer re.Close()
	st := re.Stats()
	if st.Rejected != 1 || st.Loaded != 0 || st.LiveRecords != 0 || st.DeadBytes == 0 {
		t.Fatalf("foreign-version record not rejected at scan: %+v", st)
	}
	if got := replayAll(t, re); len(got) != 0 {
		t.Fatalf("foreign-version record replayed: %d", len(got))
	}
}

// TestStoreBootsColdOnPreviousVersion is the upgrade path of a wire-
// format bump (v2 → v3 added the completed-focus ledger): a directory
// whose every frame was written by the previous version opens without
// error, counts each frame rejected — none corrupted, none loaded,
// nothing truncated — and serves and persists normally from there.
func TestStoreBootsColdOnPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	blocks := []string{"Q4", "Q3", "Q10"}
	for _, b := range blocks {
		s.Put(query.Keys{FP: b}, testSnapshot(t, b), false)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Stamp every frame's snapshot blob with the previous version and
	// reseal both checksums; the scan gate reads no further than that.
	// The previous version left no checkpoint.
	dropCheckpoint(t, dir)
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for off := 0; off < len(data); frames++ {
		payload := data[off+frameHeaderLen:][:binary.LittleEndian.Uint32(data[off:])]
		_, _, blob, ok := parseFrame(payload)
		if !ok {
			t.Fatal("cannot parse own frame")
		}
		binary.LittleEndian.PutUint16(blob[4:], snapcodec.Version-1)
		binary.LittleEndian.PutUint32(blob[len(blob)-4:],
			crc32.Checksum(blob[:len(blob)-4], castagnoli))
		binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(payload, castagnoli))
		off += frameHeaderLen + len(payload)
	}
	if frames != len(blocks) {
		t.Fatalf("segment holds %d frames, want %d", frames, len(blocks))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir, nil)
	st := re.Stats()
	if st.Rejected != uint64(frames) || st.Corrupted != 0 || st.Loaded != 0 || st.LiveRecords != 0 {
		t.Fatalf("previous-version directory did not boot cold: %+v", st)
	}
	if got := replayAll(t, re); len(got) != 0 {
		t.Fatalf("previous-version records replayed: %d", len(got))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("the rejected segment was truncated (%v)", err)
	}
	re.Put(query.Keys{FP: "Q4"}, testSnapshot(t, "Q4"), false)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := openTestStore(t, dir, nil)
	defer again.Close()
	if got := replayAll(t, again); len(got) != 1 || got["Q4"].Snap == nil {
		t.Fatalf("re-persisted record not served after the cold boot: %d records", len(got))
	}
}

// TestStoreReplayOrderFollowsRepersist pins the replay-order contract:
// re-persisting a fingerprint moves it to the end of the replay
// stream, exactly as a live Put sequence would — the canonical cache
// tier's class representative depends on it.
func TestStoreReplayOrderFollowsRepersist(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put(query.Keys{FP: "a", CanonFP: "canonX"}, testSnapshot(t, "Q4"), false)
	s.Put(query.Keys{FP: "b", CanonFP: "canonX"}, testSnapshot(t, "Q12"), false)
	s.Put(query.Keys{FP: "a", CanonFP: "canonX"}, testSnapshot(t, "Q4"), false) // re-persist: a is newest again
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir, nil)
	defer re.Close()
	var order []string
	if err := re.Replay(func(r Record) bool {
		order = append(order, r.FP)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("replay order %v, want [b a] (re-persisted a last)", order)
	}
}
