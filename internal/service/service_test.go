package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/workload"
)

func testConfig(levels int) Config {
	return Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: levels,
			TargetPrecision:  1.05,
			PrecisionStep:    0.1,
		},
		Workers:     4,
		IdleTimeout: -1, // tests control expiry explicitly
	}
}

// awaitState polls until the session reaches the wanted state or the
// deadline passes.
func awaitState(t *testing.T, svc *Service, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Poll(id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %v waiting for %v", id, st.State, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestConcurrentSessions drives many sessions with interleaved polls,
// bounds changes and terminations — the race-detector workout for the
// scheduler, manager and cache (run under go test -race).
func TestConcurrentSessions(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	names := []string{"Q4", "Q12", "Q13", "Q14", "Q20"}
	const sessions = 64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			blk, _ := workload.Find(blocks, names[i%len(names)])
			id, err := svc.Create(blk.Query)
			if err != nil {
				errs <- err
				return
			}
			st := awaitState(t, svc, id, AtTarget)
			if len(st.Frontier) == 0 {
				errs <- fmt.Errorf("session %s converged with empty frontier", id)
				return
			}
			if rng.Intn(2) == 0 {
				if err := svc.SetBounds(id, st.Frontier[0].Cost.Scale(2)); err != nil {
					errs <- err
					return
				}
				st = awaitState(t, svc, id, AtTarget)
			}
			if len(st.Frontier) > 0 && rng.Intn(2) == 0 {
				if _, err := svc.Select(id, 0, st.Steps); err != nil {
					errs <- err
				}
			} else if err := svc.Close(id); err != nil {
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
	if st.Created != sessions {
		t.Errorf("created %d sessions, want %d", st.Created, sessions)
	}
	if st.Active != 0 {
		t.Errorf("%d sessions still active after all terminated", st.Active)
	}
	if st.Selected+st.Closed != sessions {
		t.Errorf("selected %d + closed %d != %d", st.Selected, st.Closed, sessions)
	}
}

// TestBoundsChangeResetsResolution verifies the paper's regime rule
// through the service: every bounds change starts a new regime at
// resolution 0, and resolution then climbs by one per scheduled step.
func TestBoundsChangeResetsResolution(t *testing.T) {
	svc, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, svc, id, AtTarget)
	if st.Resolution != 3 {
		t.Fatalf("converged at resolution %d, want 3", st.Resolution)
	}
	if err := svc.SetBounds(id, st.Frontier[0].Cost.Scale(3)); err != nil {
		t.Fatal(err)
	}
	awaitState(t, svc, id, AtTarget)

	m, ok := svc.mgr.get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	m.mu.Lock()
	records := m.sess.Records()
	m.mu.Unlock()

	resets := 0
	for i, r := range records {
		if r.BoundsChanged {
			resets++
			if r.Resolution != 0 {
				t.Errorf("record %d: regime start at resolution %d, want 0", i, r.Resolution)
			}
		} else if i > 0 && r.Resolution != records[i-1].Resolution+1 {
			t.Errorf("record %d: resolution %d after %d, want +1 per idle step",
				i, r.Resolution, records[i-1].Resolution)
		}
	}
	if resets != 2 {
		t.Errorf("%d regime starts recorded, want 2 (create + bounds change)", resets)
	}
}

// TestIdleExpiry verifies the janitor reclaims sessions no client has
// touched for the idle timeout.
func TestIdleExpiry(t *testing.T) {
	cfg := testConfig(2)
	cfg.IdleTimeout = 50 * time.Millisecond
	cfg.JanitorInterval = 10 * time.Millisecond
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, svc, id, AtTarget)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Poll(id); err != nil {
			break // expired and removed
		}
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		// Polling refreshes lastTouch, so back off past the timeout.
		time.Sleep(60 * time.Millisecond)
	}
	if st := svc.Stats(); st.Expired != 1 || st.Active != 0 {
		t.Errorf("stats after expiry: expired=%d active=%d, want 1/0", st.Expired, st.Active)
	}
}

// TestIdleExpiryNanosecondTimeout: an idle timeout under 4 ns derived
// a zero janitor period, and NewTicker panicked in the janitor
// goroutine, killing the process. The derived period is floored at a
// millisecond: the service boots, expires the session and shuts down.
func TestIdleExpiryNanosecondTimeout(t *testing.T) {
	cfg := testConfig(3)
	cfg.IdleTimeout = 3 * time.Nanosecond
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	if got := svc.cfg.JanitorInterval; got != time.Millisecond {
		t.Errorf("derived janitor interval %v, want the 1ms floor", got)
	}

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Poll(id); !errors.Is(err, ErrNoSession) {
		t.Errorf("poll after expiry: %v, want ErrNoSession", err)
	}
}

// TestWarmStartCache verifies the cache path end to end: the first
// session on a query shape converges cold and exports a snapshot, a
// second session on the same shape warm-starts from it, and a distinct
// shape misses.
func TestWarmStartCache(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	q4, _ := workload.Find(blocks, "Q4")
	q3, _ := workload.Find(blocks, "Q3")

	id1, err := svc.Create(q4.Query)
	if err != nil {
		t.Fatal(err)
	}
	cold := awaitState(t, svc, id1, AtTarget)
	if cold.WarmStarted {
		t.Error("first session reported a warm start")
	}
	if err := svc.Close(id1); err != nil {
		t.Fatal(err)
	}

	id2, err := svc.Create(q4.Query)
	if err != nil {
		t.Fatal(err)
	}
	warm := awaitState(t, svc, id2, AtTarget)
	if !warm.WarmStarted {
		t.Error("second session on the same shape did not warm-start")
	}
	if len(warm.Frontier) != len(cold.Frontier) {
		t.Errorf("warm frontier has %d plans, cold had %d", len(warm.Frontier), len(cold.Frontier))
	}

	id3, err := svc.Create(q3.Query)
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitState(t, svc, id3, AtTarget); st.WarmStarted {
		t.Error("distinct query shape warm-started")
	}

	st := svc.Stats()
	if st.WarmStarts != 1 {
		t.Errorf("WarmStarts = %d, want 1", st.WarmStarts)
	}
	if st.Cache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Cache.Hits)
	}
	if st.Cache.Misses < 2 {
		t.Errorf("cache misses = %d, want ≥ 2 (first Q4 create + Q3 create)", st.Cache.Misses)
	}
	if st.Cache.Entries != 2 {
		t.Errorf("cache entries = %d, want 2", st.Cache.Entries)
	}
}

// TestCacheDisabled verifies CacheCapacity < 0 turns the warm-start
// path off entirely.
func TestCacheDisabled(t *testing.T) {
	cfg := testConfig(2)
	cfg.CacheCapacity = -1
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	for i := 0; i < 2; i++ {
		id, err := svc.Create(blk.Query)
		if err != nil {
			t.Fatal(err)
		}
		if st := awaitState(t, svc, id, AtTarget); st.WarmStarted {
			t.Error("warm start with the cache disabled")
		}
	}
	if st := svc.Stats(); st.WarmStarts != 0 || st.Cache.Entries != 0 {
		t.Errorf("cache activity with cache disabled: %+v", st.Cache)
	}
}

// TestSelectReturnsFrontierPlan verifies Select hands back exactly the
// plan the last poll showed at the index, refuses with the error the API
// maps to a status, and finishes the session.
func TestSelectReturnsFrontierPlan(t *testing.T) {
	svc, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q13")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, svc, id, AtTarget)
	if len(st.Frontier) == 0 {
		t.Fatal("empty frontier at target")
	}
	if _, err := svc.Select(id, 0, st.Steps+7); !errors.Is(err, ErrFrontierMoved) {
		t.Errorf("select with a stale steps token: %v, want ErrFrontierMoved", err)
	}
	if _, err := svc.Select(id, len(st.Frontier), st.Steps); !errors.Is(err, ErrPlanIndex) {
		t.Errorf("select past the frontier: %v, want ErrPlanIndex", err)
	}
	last := len(st.Frontier) - 1
	p, err := svc.Select(id, last, st.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Tables != blk.Query.Tables() {
		t.Errorf("selected plan covers %v, want %v", p.Tables, blk.Query.Tables())
	}
	if want := st.Frontier[last]; p.String() != want.String() || !p.Cost.Equal(want.Cost) {
		t.Errorf("selected %v %v, the poll showed %v %v at index %d", p, p.Cost, want, want.Cost, last)
	}
	if _, err := svc.Poll(id); !errors.Is(err, ErrNoSession) {
		t.Errorf("poll after select: %v, want ErrNoSession", err)
	}
	if _, err := svc.Select(id, 0, -1); !errors.Is(err, ErrNoSession) {
		t.Errorf("second select: %v, want ErrNoSession", err)
	}
}

// TestPollServesPublishedFrontier pins what a poll of a converged session
// costs: it hands out the very slice the last step published — a range
// query against the optimizer would have allocated a fresh one — and
// allocates no frontier (the one allocation left is the Bounds copy).
func TestPollServesPublishedFrontier(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	first := awaitState(t, svc, id, AtTarget)
	if len(first.Frontier) == 0 {
		t.Fatal("empty frontier at target")
	}
	for i, p := range first.Frontier {
		for j, q := range first.Frontier {
			if i != j && q.Cost.Dominates(p.Cost) {
				t.Fatalf("polled plan %d (%v) is dominated by plan %d (%v)", i, p.Cost, j, q.Cost)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		st, err := svc.Poll(id)
		if err != nil || len(st.Frontier) != len(first.Frontier) || &st.Frontier[0] != &first.Frontier[0] {
			t.Fatalf("poll returned a different frontier slice (err %v)", err)
		}
	})
	if allocs > 1 {
		t.Errorf("Poll allocates %v times, want at most the Bounds copy", allocs)
	}
}

// TestRejectsHooks verifies the concurrency guard on optimizer hooks.
func TestRejectsHooks(t *testing.T) {
	cfg := testConfig(2)
	cfg.Opt.Hooks.PlanGenerated = func(*plan.Node) {}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a config with hooks")
	}
}

// TestWaitTarget verifies the blocking step-completion signal: waiters
// wake when the session converges, further waits return immediately,
// and concurrent closes unblock waiters with the terminal state.
func TestWaitTarget(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.WaitTarget(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != AtTarget {
		t.Fatalf("WaitTarget returned state %v, want %v", st.State, AtTarget)
	}
	if len(st.Frontier) == 0 {
		t.Error("empty frontier at target")
	}
	// A second wait on a converged session returns without blocking.
	done := make(chan Status, 1)
	go func() {
		st, err := svc.WaitTarget(id)
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	select {
	case st = <-done:
		if st.State != AtTarget {
			t.Errorf("second wait state %v", st.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitTarget blocked on a converged session")
	}
	// Waiters blocked across a bounds change are released when the new
	// regime converges — or, as here, when the session is closed.
	tight := st.Frontier[0].Cost.Scale(1.3)
	if err := svc.SetBounds(id, tight); err != nil {
		t.Fatal(err)
	}
	go func() {
		st, err := svc.WaitTarget(id)
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	if st, err = svc.WaitTarget(id); err != nil || st.State == Refining {
		t.Fatalf("wait after SetBounds: state %v err %v", st.State, err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter not released")
	}
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitTarget(id); err == nil {
		t.Error("WaitTarget on a removed session succeeded")
	}
}

// TestWaitTargetShutdownRelease pins the Shutdown contract: a waiter
// parked on a session that can no longer converge (workers stopping)
// is released with ErrShutdown instead of blocking forever.
func TestWaitTargetShutdownRelease(t *testing.T) {
	svc, err := New(testConfig(20)) // deep refinement: will not converge quickly
	if err != nil {
		t.Fatal(err)
	}
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q5")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := svc.WaitTarget(id)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	svc.Shutdown()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrShutdown) {
			t.Fatalf("WaitTarget after Shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("WaitTarget not released by Shutdown")
	}
}
