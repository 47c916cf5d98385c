package service

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/query"
	"repro/internal/workload"
)

func storeConfig(t *testing.T, dir string) Config {
	t.Helper()
	cfg := testConfig(3)
	cfg.StoreDir = dir
	return cfg
}

func testBlock(t *testing.T, name string) *query.Query {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), name)
	if !ok {
		t.Fatalf("unknown block %s", name)
	}
	return blk.Query
}

// convergeAndClose drives one session to target and returns its final
// frontier rendered cost-sensitively (signature + cost vector, sorted),
// so equality across services pins cost-identical restores.
func convergeAndClose(t *testing.T, svc *Service, q *query.Query) (Status, []string) {
	t.Helper()
	id, err := svc.Create(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.WaitTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != AtTarget {
		t.Fatalf("session ended in %v", st.State)
	}
	var rendered []string
	for _, p := range st.Frontier {
		rendered = append(rendered, p.Signature()+"|"+p.Cost.String())
	}
	sort.Strings(rendered)
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
	return st, rendered
}

// TestServiceRestartWarm is the restart acceptance pin: a service
// rebuilt on the same store directory serves a previously-seen query
// as a warm start whose frontier is cost-identical to the one an
// in-memory warm restore produces. Run under -race in CI (the
// store+cache integration check).
func TestServiceRestartWarm(t *testing.T) {
	dir := t.TempDir()
	q := testBlock(t, "Q4")

	svc1, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := convergeAndClose(t, svc1, q)
	if cold.WarmStarted {
		t.Fatal("first session warm-started in a fresh store")
	}
	// In-memory warm restore in the same process: the reference the
	// persisted restore must match.
	mem, memFrontier := convergeAndClose(t, svc1, q)
	if !mem.WarmStarted {
		t.Fatal("in-memory warm start missed")
	}
	svc1.Shutdown() // flushes the store

	cfg2 := storeConfig(t, dir)
	cfg2.Events = eventlog.New(eventlog.Options{})
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	if st := svc2.Stats(); st.Store.Loaded == 0 || st.Cache.Entries == 0 {
		t.Fatalf("restart did not replay the store: %+v", st.Store)
	}
	// The replay event attributes the boot: the hot set's fetch time
	// rides in it as fetch_ms.
	fetchMs := ""
	for _, ev := range cfg2.Events.Snapshot(0, eventlog.LevelInfo) {
		if ev.Msg == "snapshot store replayed" {
			for _, f := range ev.Fields {
				if f.Key == "fetch_ms" {
					fetchMs = f.Value
				}
			}
		}
	}
	if v, err := strconv.ParseFloat(fetchMs, 64); err != nil || v < 0 {
		t.Errorf("replay event fetch_ms = %q, want a duration in ms", fetchMs)
	}
	disk, diskFrontier := convergeAndClose(t, svc2, q)
	if !disk.WarmStarted {
		t.Fatal("restarted service did not warm-start a previously-seen query")
	}
	if len(diskFrontier) == 0 {
		t.Fatal("empty frontier after persisted warm start")
	}
	if len(diskFrontier) != len(memFrontier) {
		t.Fatalf("persisted-warm frontier has %d plans, in-memory warm %d", len(diskFrontier), len(memFrontier))
	}
	for i := range diskFrontier {
		if diskFrontier[i] != memFrontier[i] {
			t.Fatalf("persisted-warm restore diverges from in-memory warm:\n  %s\nvs\n  %s",
				diskFrontier[i], memFrontier[i])
		}
	}
	if st := svc2.Stats(); st.WarmStarts != 1 || st.Cache.ExactHits != 1 {
		t.Errorf("warm starts %d, exact hits %d, want 1/1", st.WarmStarts, st.Cache.ExactHits)
	}
}

// TestServiceRestartIsomorphicWarm checks the canonical tier survives
// persistence: a restart serves a query that is only isomorphic to the
// persisted one (different table IDs, same shape) as a warm start.
func TestServiceRestartIsomorphicWarm(t *testing.T) {
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	if !ok {
		t.Fatal("missing block Q3")
	}
	variants, err := workload.IsoVariants(blk, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc1, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	convergeAndClose(t, svc1, variants[0].Query)
	svc1.Shutdown()

	svc2, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	iso, frontier := convergeAndClose(t, svc2, variants[1].Query)
	if !iso.WarmStarted {
		t.Fatal("isomorphic variant did not warm-start after restart")
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if st := svc2.Stats(); st.IsoWarmStarts != 1 || st.Cache.IsoHits != 1 {
		t.Errorf("iso warm starts %d, iso hits %d, want 1/1", st.IsoWarmStarts, st.Cache.IsoHits)
	}
}

// TestServiceRestartCorruptStoreColdStarts pins the degradation
// contract: a fully corrupted store directory still starts, serves the
// query cold, and converges to the same frontier.
func TestServiceRestartCorruptStoreColdStarts(t *testing.T) {
	dir := t.TempDir()
	q := testBlock(t, "Q4")
	svc1, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	_, want := convergeAndClose(t, svc1, q)
	svc1.Shutdown()

	// Trash every segment byte; the scan must truncate, load nothing,
	// and never fail startup.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments persisted (%v)", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xa5
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatalf("corrupted store failed startup: %v", err)
	}
	defer svc2.Shutdown()
	st := svc2.Stats()
	if st.Store.Loaded != 0 || st.Store.Corrupted == 0 || st.Cache.Entries != 0 {
		t.Fatalf("corrupted store replayed records: %+v", st.Store)
	}
	cold, got := convergeAndClose(t, svc2, q)
	if cold.WarmStarted {
		t.Error("session warm-started from a corrupted store")
	}
	if len(got) != len(want) {
		t.Fatalf("cold frontier has %d plans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cold-start frontier diverges (wrong plans): %s vs %s", got[i], want[i])
		}
	}
}

// TestServiceRestartConfigDrift pins cfgEcho rejection end to end: a
// restart under different optimizer settings refuses every persisted
// record and serves cold.
func TestServiceRestartConfigDrift(t *testing.T) {
	dir := t.TempDir()
	q := testBlock(t, "Q4")
	svc1, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	convergeAndClose(t, svc1, q)
	svc1.Shutdown()

	cfg := storeConfig(t, dir)
	cfg.Opt.ResolutionLevels = 4 // a different precision schedule
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	st := svc2.Stats()
	if st.Store.Rejected == 0 || st.Store.Loaded != 0 || st.Cache.Entries != 0 {
		t.Fatalf("config drift not rejected at replay: %+v", st.Store)
	}
	if drifted, _ := convergeAndClose(t, svc2, q); drifted.WarmStarted {
		t.Error("session warm-started across a config change")
	}
}
