package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestStepPanicIsolation is the 1-of-64 acceptance check: one session's
// refinement step panics (via the injected FaultHook) and the daemon
// stays up — the other 63 sessions converge and terminate normally, the
// failed session surfaces its captured error through Poll, and Close
// acknowledges it. Run under -race in CI.
func TestStepPanicIsolation(t *testing.T) {
	const victim = "s-1"
	cfg := testConfig(3)
	cfg.FaultHook = func(id string, step int) {
		if id == victim && step == 0 {
			panic("injected step fault")
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	names := []string{"Q4", "Q12", "Q13", "Q14", "Q20"}
	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	fail := func(format string, args ...any) {
		errs <- fmt.Errorf(format, args...)
	}
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blk, _ := workload.Find(blocks, names[i%len(names)])
			id, err := svc.Create(blk.Query)
			if err != nil {
				errs <- err
				return
			}
			if id == victim {
				st := awaitState(t, svc, id, Failed)
				if !strings.Contains(st.Err, "injected step fault") {
					fail("failed session error %q does not carry the panic", st.Err)
				}
				if err := svc.Close(id); err != nil {
					fail("close failed session: %v", err)
				}
				return
			}
			st := awaitState(t, svc, id, AtTarget)
			if len(st.Frontier) == 0 {
				fail("session %s converged with empty frontier", id)
				return
			}
			if err := svc.Close(id); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Failed != 1 {
		t.Errorf("failed %d, want exactly the victim", st.Failed)
	}
	if st.Created != sessions || st.Closed != sessions {
		t.Errorf("created %d closed %d, want %d/%d", st.Created, st.Closed, sessions, sessions)
	}
	if st.Active != 0 {
		t.Errorf("%d sessions still active", st.Active)
	}
}

// TestRestoreFailureQuarantinesColdFallback plants an unrestorable
// snapshot in the cache and checks the restore-time arm of D14: Create
// succeeds anyway (cold fallback), the poison entry is quarantined from
// both tiers, and the session's own convergence re-exports a healthy
// snapshot that warm-starts the next create.
func TestRestoreFailureQuarantinesColdFallback(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	q := testBlock(t, "Q4")
	fp := q.Fingerprint()
	canonFp, perm := q.CanonicalFingerprint()
	// A zero-value snapshot passes the cache's nil check but can never
	// restore (its config echo matches no real configuration) — the
	// in-memory analogue of a corrupt-but-CRC-valid store record.
	svc.cache.Put(query.Keys{FP: fp, CanonFP: canonFp, Perm: perm}, &core.Snapshot{})

	st, frontier := convergeAndClose(t, svc, q)
	if st.WarmStarted {
		t.Fatal("poison snapshot produced a warm start")
	}
	if len(frontier) == 0 {
		t.Fatal("cold fallback converged with empty frontier")
	}
	stats := svc.Stats()
	if stats.Poisoned != 1 || stats.Cache.Poisoned != 1 {
		t.Fatalf("poisoned %d, cache poisoned %d, want 1/1", stats.Poisoned, stats.Cache.Poisoned)
	}
	// The convergence above re-exported a fresh snapshot under the same
	// fingerprint; the lineage is reset and warm starts work again.
	st2, _ := convergeAndClose(t, svc, q)
	if !st2.WarmStarted {
		t.Fatal("fresh re-export after quarantine did not warm-start")
	}
}

// TestPoisonSnapshotRestartLoop is the crash-loop acceptance check
// across three service generations on one store directory: generation 2
// warm-starts from a persisted snapshot whose first post-restore step
// panics — the source record must be quarantined on disk — and
// generation 3 must come up clean, serving the query cold with a
// correct frontier instead of failing on the same record again.
func TestPoisonSnapshotRestartLoop(t *testing.T) {
	dir := t.TempDir()
	q := testBlock(t, "Q4")

	svc1, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	convergeAndClose(t, svc1, q)
	svc1.Shutdown()

	// Generation 2: the replayed snapshot restores fine, but its first
	// post-restore step panics — the restored plan state is poison.
	var arm atomic.Bool
	arm.Store(true)
	cfg2 := storeConfig(t, dir)
	cfg2.FaultHook = func(id string, step int) {
		if step == 0 && arm.Load() {
			panic("poisoned warm start")
		}
	}
	svc2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc2.Create(q)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, svc2, id, Failed)
	arm.Store(false)
	if !st.WarmStarted {
		t.Fatal("generation 2 did not warm-start; the test lost its premise")
	}
	if !strings.Contains(st.Err, "poisoned warm start") {
		t.Errorf("failed session error %q does not carry the panic", st.Err)
	}
	// The failure is counted by the time Failed is visible; the
	// quarantine follows it off the session lock, so wait for it.
	stats := svc2.Stats()
	for deadline := time.Now().Add(10 * time.Second); stats.Poisoned == 0 && time.Now().Before(deadline); stats = svc2.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	if stats.Failed != 1 || stats.Poisoned != 1 || stats.Cache.Poisoned != 1 {
		t.Fatalf("failed %d poisoned %d cache-poisoned %d, want 1/1/1",
			stats.Failed, stats.Poisoned, stats.Cache.Poisoned)
	}
	if err := svc2.Close(id); err != nil {
		t.Fatal(err)
	}
	svc2.Shutdown() // flushes the tombstone

	// Generation 3: the tombstone keeps the poison buried — the scan
	// loads nothing for q, and the cold optimization just works.
	svc3, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Shutdown()
	stats = svc3.Stats()
	if stats.Store.Loaded != 0 || stats.Store.Tombstones != 1 {
		t.Fatalf("generation 3 scan: loaded %d tombstones %d, want 0/1",
			stats.Store.Loaded, stats.Store.Tombstones)
	}
	st3, frontier := convergeAndClose(t, svc3, q)
	if st3.WarmStarted {
		t.Error("generation 3 warm-started from a quarantined record")
	}
	if len(frontier) == 0 {
		t.Fatal("generation 3 converged with empty frontier")
	}
	if s := svc3.Stats(); s.Failed != 0 {
		t.Errorf("generation 3 failed %d sessions; the poison leaked through", s.Failed)
	}
}

// TestSessionDeadlineTimesOut checks the wall-clock deadline: a session
// older than SessionDeadline transitions to TimedOut on a janitor sweep
// and leaves the registry, regardless of client polling.
func TestSessionDeadlineTimesOut(t *testing.T) {
	cfg := testConfig(2)
	cfg.SessionDeadline = 50 * time.Millisecond
	cfg.JanitorInterval = 5 * time.Millisecond
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	id, err := svc.Create(testBlock(t, "Q4"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Polling is client activity; the deadline must fire anyway.
		if _, err := svc.Poll(id); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session outlived its deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := svc.Stats(); st.TimedOut != 1 || st.Active != 0 {
		t.Errorf("timed out %d, active %d, want 1/0", st.TimedOut, st.Active)
	}
}

// TestOverloadErrorStructured checks the typed admission refusal: the
// sentinel still matches via errors.Is, the structured fields name the
// tripped limit, and the refusal is counted.
func TestOverloadErrorStructured(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxActiveSessions = 1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	id, err := svc.Create(testBlock(t, "Q4"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Create(testBlock(t, "Q12"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second create: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("refusal %T is not an *OverloadError", err)
	}
	if oe.Kind != "sessions" || oe.Limit != 1 || oe.N < 1 {
		t.Errorf("refusal fields %+v", oe)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
}

// TestRecostFirstStepPanicBuriesOwnKey is the D14 regression for the
// small-drift rung: a re-cost session admits its re-costed snapshot under
// its own keys — cache and store — inside Create, before it has run a
// step. If its first step then panics, that copy is as indicted as the
// stale source it was derived from: both must leave the cache and be
// tombstoned, so that neither the next identical create nor a restart is
// served "exact" from the state that just failed.
func TestRecostFirstStepPanicBuriesOwnKey(t *testing.T) {
	dir := t.TempDir()
	stats := catalog.NewVersioned(workload.Catalog(1))
	var arm atomic.Bool
	cfg := testConfig(3)
	cfg.StoreDir = dir
	cfg.Stats = stats
	cfg.FaultHook = func(id string, step int) {
		if step == 0 && arm.Load() {
			panic("poisoned re-cost")
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	runToTarget(t, svc, driftBlocks(t, stats, "Q3"), "", false)
	if _, err := stats.Apply(catalog.StatsUpdate{
		Tables: []catalog.TableStats{{Name: "orders", Rows: 1_500_000 * 1.01}},
	}); err != nil {
		t.Fatal(err)
	}
	q := driftBlocks(t, stats, "Q3")

	arm.Store(true)
	id, err := svc.Create(q)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, svc, id, Failed)
	arm.Store(false)
	if st.Provenance != "recost" || st.Steps != 0 {
		t.Fatalf("the victim was a %q session with %d steps; the test lost its premise", st.Provenance, st.Steps)
	}
	// The quarantines follow the Failed transition off the session lock.
	stat := svc.Stats()
	for deadline := time.Now().Add(5 * time.Second); stat.Poisoned < 2 && time.Now().Before(deadline); stat = svc.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	if stat.Poisoned != 2 || stat.Cache.Poisoned != 2 || stat.Cache.Entries != 0 {
		t.Errorf("poisoned %d (cache %d), %d cache entries; want the stale source and the pre-admitted copy both gone",
			stat.Poisoned, stat.Cache.Poisoned, stat.Cache.Entries)
	}
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
	if st, _ := convergeAndClose(t, svc, q); st.WarmStarted || st.Provenance != "cold" {
		t.Errorf("the next identical create polls warm=%v provenance=%q: served from the state that just failed",
			st.WarmStarted, st.Provenance)
	}
	if err := svc.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Store.Tombstones; got != 2 {
		t.Errorf("%d tombstones, want the source's and the pre-admitted copy's", got)
	}
	svc.Shutdown()

	// The next life finds two tombstones and the cold session's fresh
	// export, nothing else: had the pre-admitted record survived, the
	// tombstone count would be one.
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	if st := svc2.Stats().Store; st.Tombstones != 2 || st.Loaded != 1 {
		t.Errorf("restart scan: %d tombstones, %d loaded; want 2/1", st.Tombstones, st.Loaded)
	}
	if st := runToTarget(t, svc2, q, "", true); st.Provenance != "exact-replay" {
		t.Errorf("restart served the re-optimized query as %q", st.Provenance)
	}
}
