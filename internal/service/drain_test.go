package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// TestDrainRefusesCreates pins the drain admission contract: once Drain
// starts, Create fails with ErrDraining — immediately, permanently, and
// before any other admission check runs.
func TestDrainRefusesCreates(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	q := testBlock(t, "Q4")
	if _, err := svc.Create(q); err != nil {
		t.Fatal(err)
	}
	svc.Drain(time.Second)
	if !svc.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := svc.Create(q); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: %v, want ErrDraining", err)
	}
	st := svc.Stats()
	if !st.Draining {
		t.Error("Stats().Draining false after Drain")
	}
}

// TestDrainCountsConverged: sessions that reached their target before
// (or during) the grace window need no checkpoint and are counted as
// converged; a drained service reports zero failed or abandoned work.
func TestDrainCountsConverged(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	id, err := svc.Create(testBlock(t, "Q4"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.WaitTarget(id); err != nil || st.State != AtTarget {
		t.Fatalf("wait: %v %v", st.State, err)
	}
	converged, checkpointed := svc.Drain(5 * time.Second)
	if converged != 1 || checkpointed != 0 {
		t.Fatalf("drain counts: converged=%d checkpointed=%d, want 1/0", converged, checkpointed)
	}
	if st := svc.Stats(); st.Failed != 0 || st.DrainConverged != 1 || st.DrainCheckpointed != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

// TestDrainCheckpointsInFlight is the warm-handoff acceptance pin: a
// session still refining when the grace window closes is checkpointed
// through the snapshot path, and a service restarted on the same store
// directory serves the query warm with a frontier cost-identical to a
// cold control's — the checkpoint lost nothing, because the restored
// session re-steps the full resolution ladder over the checkpointed
// optimizer state.
func TestDrainCheckpointsInFlight(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(t, dir)
	// Slow every step down so the session is still mid-refinement when
	// the zero-grace drain sweeps it.
	cfg.FaultHook = func(id string, step int) { time.Sleep(25 * time.Millisecond) }
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := testBlock(t, "Q12")
	id, err := svc.Create(q)
	if err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a moment to start stepping, then drain with no
	// grace: with every step slowed to 25ms the session cannot have
	// converged yet and must be caught refining.
	time.Sleep(5 * time.Millisecond)
	converged, checkpointed := svc.Drain(0)
	if checkpointed != 1 || converged != 0 {
		st, _ := svc.Poll(id)
		t.Fatalf("drain counts: converged=%d checkpointed=%d (session state %v), want 0/1",
			converged, checkpointed, st.State)
	}
	svc.Shutdown()

	// The cold control: what a from-scratch optimization of q produces.
	control, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	_, want := convergeAndClose(t, control, q)
	control.Shutdown()

	// Restart on the drained store: the checkpoint must be there, load,
	// and warm-start the query to the identical frontier.
	svc2, err := New(storeConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	if st := svc2.Stats(); st.Store.Loaded == 0 {
		t.Fatalf("checkpoint did not persist: %+v", st.Store)
	}
	warm, got := convergeAndClose(t, svc2, q)
	if !warm.WarmStarted {
		t.Fatal("restart after drain-checkpoint did not warm-start")
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("frontiers differ in size: warm %d vs control %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("checkpoint-restored frontier diverges from cold control:\n  %s\nvs\n  %s", got[i], want[i])
		}
	}
}

// TestDrainIdempotent: concurrent and repeated Drains all observe one
// sweep and the same counts.
func TestDrainIdempotent(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	id, err := svc.Create(testBlock(t, "Q4"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.WaitTarget(id); err != nil || st.State != AtTarget {
		t.Fatalf("wait: %v %v", st.State, err)
	}
	type counts struct{ c, k int }
	results := make([]counts, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, k := svc.Drain(time.Second)
			results[i] = counts{c, k}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r != (counts{1, 0}) {
			t.Errorf("caller %d saw counts %+v, want {1 0}", i, r)
		}
	}
}

// floodCreates runs four goroutines that create sessions for q until
// the service refuses them with ErrDraining, counting each success in
// admitted; it returns once admitted reaches atLeast (or a create
// failed), and wait returns once every goroutine has stopped.
func floodCreates(t *testing.T, svc *Service, q *query.Query, admitted *atomic.Int32, atLeast int32) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := svc.Create(q)
				if errors.Is(err, ErrDraining) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				admitted.Add(1)
			}
		}()
	}
	for admitted.Load() < atLeast && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	return wg.Wait
}

// TestDrainSweepsEveryAdmittedSession races creates against a drain:
// the session of every Create that succeeds must be in the drain's
// sweep, never registered after it, where no worker would step it once
// Shutdown follows. The creators run until they are refused, so some
// are inside Create when the drain flips. Every create is an exact
// warm start, whose optimizer a zero-grace sweep can checkpoint before
// its first step, so the sweep must count each admitted session once.
func TestDrainSweepsEveryAdmittedSession(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	q := testBlock(t, "Q12")
	convergeAndClose(t, svc, q)
	var admitted atomic.Int32
	wait := floodCreates(t, svc, q, &admitted, 8)
	converged, checkpointed := svc.Drain(0)
	wait()
	if n := int(admitted.Load()); converged+checkpointed != n {
		t.Fatalf("the drain swept %d converged and %d checkpointed sessions of %d admitted", converged, checkpointed, n)
	}
}

// TestDrainSkipsUnsteppedSessions drains with no grace while cold
// creates flood the queue of one slowed worker, so the sweep finds
// sessions the worker has not stepped: they hold no plan state, and the
// drain must pass over them instead of checkpointing nothing.
func TestDrainSkipsUnsteppedSessions(t *testing.T) {
	cfg := testConfig(3)
	cfg.Workers = 1
	cfg.FaultHook = func(string, int) { time.Sleep(10 * time.Millisecond) }
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	var admitted atomic.Int32
	wait := floodCreates(t, svc, testBlock(t, "Q4"), &admitted, 16)
	converged, checkpointed := svc.Drain(0)
	wait()
	if n := int(admitted.Load()); converged+checkpointed >= n {
		t.Fatalf("the drain counted %d converged and %d checkpointed of %d sessions; some must have been unstepped", converged, checkpointed, n)
	}
	if st := svc.Stats(); st.Failed != 0 {
		t.Fatalf("%d failed sessions after the drain", st.Failed)
	}
}
