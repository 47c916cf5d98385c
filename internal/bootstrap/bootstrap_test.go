package bootstrap

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/query"
	"repro/internal/store"
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

func testEcho(t *testing.T) string {
	t.Helper()
	echo, err := core.ConfigFingerprint(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return echo
}

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

// newDonor opens a store with two records and serves its export surface
// the way moqod's /admin/store endpoints do.
func newDonor(t *testing.T, mutate ...func(*store.Options)) (*store.Store, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	so := store.Options{Dir: dir, CfgEcho: testEcho(t)}
	for _, m := range mutate {
		m(&so)
	}
	st, err := store.Open(so)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(query.Keys{FP: "fpA", CanonFP: "canonA", Perm: []int{1, 0}}, testSnapshot(t, "Q4"), false)
	st.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, testSnapshot(t, "Q12"), false)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(donorHandler(st))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return st, ts, dir
}

func donorHandler(st *store.Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /admin/store/manifest", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(st.ExportManifest())
	})
	mux.HandleFunc("GET /admin/store/segments/{seq}", func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseInt(r.PathValue("seq"), 10, 64)
		gen, _ := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
		off, _ := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
		data, err := st.ReadSegment(gen, seq, off, 0)
		if err != nil {
			if errors.Is(err, store.ErrExportStale) {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		_, _ = w.Write(data)
	})
	return mux
}

func pullOpts(t *testing.T, peer, dir string) Options {
	t.Helper()
	return Options{
		Peer:              peer,
		Dir:               dir,
		CfgEcho:           testEcho(t),
		PerAttemptTimeout: 5 * time.Second,
		Backoff:           time.Millisecond, // keep retry loops fast in tests
	}
}

// requireCleanDir asserts a failed pull left no segment files or
// staging leftovers behind — the fallback-to-cold invariant.
func requireCleanDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".moqs") || e.Name() == tmpDirName {
			t.Fatalf("failed pull left %q behind", e.Name())
		}
	}
}

// TestPullWarm is the happy path: the joiner's directory ends up
// byte-identical to the donor's segments, and a store opened on it
// replays every record.
func TestPullWarm(t *testing.T) {
	_, ts, donorDir := newDonor(t)
	dir := t.TempDir()
	res, err := Pull(pullOpts(t, ts.URL, dir))
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 1 || res.Frames != 2 || res.Bytes == 0 || res.Resumed != 0 {
		t.Fatalf("result: %+v", res)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".moqs") {
			continue
		}
		segs++
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(donorDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pulled %s differs from donor's", e.Name())
		}
	}
	if segs != 1 {
		t.Fatalf("pulled %d segment files, want 1", segs)
	}

	st, err := store.Open(store.Options{Dir: dir, CfgEcho: testEcho(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Loaded != 2 || stats.Corrupted != 0 || stats.Rejected != 0 {
		t.Fatalf("joiner store after pull: %+v", stats)
	}
}

// TestPullResumesTornStream kills the first response mid-frame: the
// verified prefix survives, the retry resumes from its offset, and the
// final bytes are still identical to the donor's.
func TestPullResumesTornStream(t *testing.T) {
	donor, ts, donorDir := newDonor(t)
	man := donor.ExportManifest()
	seg0 := mustRead(t, donorDir, man.Segments[0].Seq)
	// End of the first frame: header + payload length from the header.
	firstFrame := int64(8) + int64(binary.LittleEndian.Uint32(seg0[:4]))
	if firstFrame+5 >= int64(len(seg0)) {
		t.Fatalf("segment too small to tear: frame %d of %d", firstFrame, len(seg0))
	}
	dir := t.TempDir()

	opts := pullOpts(t, ts.URL, dir)
	torn := false
	opts.TransferFault = func(seq, off int64, body []byte) ([]byte, error) {
		if !torn && off == 0 {
			torn = true
			// Cut inside the second frame: one whole frame plus a tail the
			// verifier must refuse.
			return body[: firstFrame+5 : firstFrame+5], errors.New("injected: donor died mid-stream")
		}
		return body, nil
	}
	res, err := Pull(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 || res.Attempts < 2 {
		t.Fatalf("torn stream did not resume: %+v", res)
	}
	if res.Frames != 2 {
		t.Fatalf("frames: %+v", res)
	}
	name := store.SegmentFileName(man.Segments[0].Seq)
	if !bytes.Equal(mustReadFile(t, filepath.Join(dir, name)), mustReadFile(t, filepath.Join(donorDir, name))) {
		t.Fatal("resumed segment differs from donor's")
	}
}

// TestPullRejectsCorruptFrames flips a byte in every response: nothing
// ever verifies, the pull fails after its retry budget, and the store
// directory is left without a single segment file — the joiner starts
// cold rather than indexing one corrupt record.
func TestPullRejectsCorruptFrames(t *testing.T) {
	_, ts, _ := newDonor(t)
	dir := t.TempDir()
	opts := pullOpts(t, ts.URL, dir)
	opts.Retries = 3
	opts.TransferFault = func(seq, off int64, body []byte) ([]byte, error) {
		mut := append([]byte(nil), body...)
		mut[8] ^= 0xff // first payload byte: CRC mismatch on frame one
		return mut, nil
	}
	res, err := Pull(opts)
	if err == nil {
		t.Fatal("corrupt transfer succeeded")
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts: %+v", res)
	}
	requireCleanDir(t, dir)
	// And the directory still cold-starts cleanly.
	st, err := store.Open(store.Options{Dir: dir, CfgEcho: testEcho(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Loaded != 0 {
		t.Fatalf("cold start loaded %d records from a failed pull", stats.Loaded)
	}
}

// TestPullUnreachablePeer: a dead donor fails the pull cleanly and
// leaves the directory untouched.
func TestPullUnreachablePeer(t *testing.T) {
	dir := t.TempDir()
	opts := pullOpts(t, "127.0.0.1:1", dir) // reserved port: refused immediately
	opts.PerAttemptTimeout = 500 * time.Millisecond
	if _, err := Pull(opts); err == nil {
		t.Fatal("pull from unreachable peer succeeded")
	}
	requireCleanDir(t, dir)
}

// TestPullRefusesLocalState: a directory that already has segments is
// never overwritten.
func TestPullRefusesLocalState(t *testing.T) {
	_, ts, _ := newDonor(t)
	dir := t.TempDir()
	local := filepath.Join(dir, store.SegmentFileName(0))
	if err := os.WriteFile(local, []byte("local"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Pull(pullOpts(t, ts.URL, dir)); !errors.Is(err, ErrLocalState) {
		t.Fatalf("pull over local state: %v, want ErrLocalState", err)
	}
	if got := mustReadFile(t, local); string(got) != "local" {
		t.Fatal("local segment was touched")
	}
}

// TestPullRestartsOnCompaction: a donor compaction mid-transfer (409)
// wipes the staged bytes and restarts from a fresh manifest; the final
// state matches the post-compaction donor exactly.
func TestPullRestartsOnCompaction(t *testing.T) {
	donor, ts, donorDir := newDonor(t, func(o *store.Options) {
		o.MinCompactBytes = 1 // compact as soon as the dead fraction trips
		o.MaxSegmentBytes = 8 << 10
	})
	dir := t.TempDir()
	opts := pullOpts(t, ts.URL, dir)
	compacted := false
	opts.TransferFault = func(seq, off int64, body []byte) ([]byte, error) {
		if !compacted {
			compacted = true
			// Supersede until the donor compacts: the generation the pull
			// started under dies, so its next fetch gets a 409.
			for i := 0; i < 16; i++ {
				donor.Put(query.Keys{FP: "fpA", CanonFP: "canonA"}, testSnapshot(t, "Q4"), true)
			}
			if err := donor.Flush(); err != nil {
				t.Error(err)
			}
			if donor.Stats().Compactions == 0 {
				t.Error("setup: no compaction forced")
			}
		}
		return body, nil
	}
	res, err := Pull(opts)
	if err != nil {
		t.Fatal(err)
	}
	man := donor.ExportManifest()
	if donor.Stats().Compactions > 0 {
		if res.Restarts == 0 {
			t.Fatalf("compaction mid-transfer did not restart the pull: %+v", res)
		}
		if res.Generation != man.Generation {
			t.Fatalf("pull finished under gen %d, donor is at %d", res.Generation, man.Generation)
		}
	}
	for _, seg := range man.Segments {
		name := store.SegmentFileName(seg.Seq)
		if !bytes.Equal(mustReadFile(t, filepath.Join(dir, name)), mustReadFile(t, filepath.Join(donorDir, name))) {
			t.Fatalf("pulled %s differs from post-compaction donor", name)
		}
	}
}

// TestPullRejectsConfigMismatch: a donor running a different optimizer
// configuration is rejected before any segment moves.
func TestPullRejectsConfigMismatch(t *testing.T) {
	_, ts, _ := newDonor(t)
	dir := t.TempDir()
	opts := pullOpts(t, ts.URL, dir)
	opts.CfgEcho = "someone-else-entirely"
	_, err := Pull(opts)
	if err == nil || !strings.Contains(err.Error(), "config echo") {
		t.Fatalf("config mismatch: %v", err)
	}
	requireCleanDir(t, dir)
}

func mustRead(t *testing.T, dir string, seq int64) []byte {
	t.Helper()
	return mustReadFile(t, filepath.Join(dir, store.SegmentFileName(seq)))
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
