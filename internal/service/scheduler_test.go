package service

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// tryPop drains one live entry without blocking (test helper).
func (sc *scheduler) tryPop() (*managed, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	m, _, ok := sc.popLocked()
	return m, ok
}

func TestSchedulerHotPriority(t *testing.T) {
	sc := newScheduler(metrics.NewRegistry())
	defer sc.stop()

	a, b, hot := &managed{id: "a"}, &managed{id: "b"}, &managed{id: "hot"}
	sc.enqueue(a, false)
	sc.enqueue(b, false)
	sc.enqueue(hot, true)
	if got, ok := sc.tryPop(); !ok || got != hot {
		t.Fatalf("pop = %v, want hot session first", got)
	}
	if got, ok := sc.tryPop(); !ok || got != a {
		t.Fatalf("pop = %v, want a (FIFO cold order)", got)
	}

	// Re-enqueueing a queued session is a no-op; a hot request promotes
	// a cold entry.
	sc.enqueue(b, false)
	if n := sc.queueLen(); n != 1 {
		t.Fatalf("queue length %d after duplicate enqueue, want 1", n)
	}
	sc.enqueue(b, true)
	if !b.hot {
		t.Error("cold entry was not promoted to hot")
	}
	if got, ok := sc.tryPop(); !ok || got != b {
		t.Fatalf("pop = %v, want b", got)
	}
	if _, ok := sc.tryPop(); ok {
		t.Error("queue not empty: the promoted session's stale cold entry was popped")
	}
	if n := sc.queueLen(); n != 0 {
		t.Errorf("queue length %d after draining, want 0", n)
	}
}

// TestSchedulerPromotionStampsStale pins the O(1) hot promotion: the
// stale cold entry left behind by a promotion is skipped, and the
// session can be re-enqueued cold afterwards without duplication.
func TestSchedulerPromotionStampsStale(t *testing.T) {
	sc := newScheduler(metrics.NewRegistry())
	defer sc.stop()

	m := &managed{id: "m"}
	sc.enqueue(m, false)
	sc.enqueue(m, true) // promote: stale cold entry remains behind
	if got, ok := sc.tryPop(); !ok || got != m {
		t.Fatalf("pop after promotion = %v, want m", got)
	}
	// A fresh cold enqueue must be live even though the old stale cold
	// entry (with an outdated stamp) is still buffered ahead of it.
	sc.enqueue(m, false)
	if got, ok := sc.tryPop(); !ok || got != m {
		t.Fatalf("pop after re-enqueue = %v, want m", got)
	}
	if _, ok := sc.tryPop(); ok {
		t.Error("stale entry resurrected the session")
	}
	if hl := sc.hotLen.Load(); hl != 0 {
		t.Errorf("hotLen %d after draining, want 0", hl)
	}
}

// TestSchedulerIdleWorkerTakesHotSession pins what work stealing was
// for: a new session never waits for a busy worker while another one
// idles. Two workers; the first steps of s-1 and s-3 each wait (at most
// 5 s) for the other's to start, so both pass only if the two run at
// once. Under per-worker shards both IDs hashed onto shard 0, hot
// entries were never stolen, and s-3 sat behind s-1's wait.
func TestSchedulerIdleWorkerTakesHotSession(t *testing.T) {
	started := map[string]chan struct{}{"s-1": make(chan struct{}), "s-3": make(chan struct{})}
	peer := map[string]string{"s-1": "s-3", "s-3": "s-1"}
	var met atomic.Int32
	cfg := testConfig(3)
	cfg.Workers, cfg.Shards = 2, 2
	cfg.FaultHook = func(id string, step int) {
		ch, ok := started[id]
		if !ok || step != 0 {
			return
		}
		close(ch)
		select {
		case <-started[peer[id]]:
			met.Add(1)
		case <-time.After(5 * time.Second):
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	ids := make([]string, 3)
	for i := range ids {
		if ids[i], err = svc.Create(blk.Query); err != nil {
			t.Fatal(err)
		}
	}
	if ids[0] != "s-1" || ids[2] != "s-3" {
		t.Fatalf("minted IDs %v, want s-1 … s-3", ids)
	}
	for _, id := range ids {
		if _, err := svc.WaitTargetTimeout(id, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := met.Load(); n != 2 {
		t.Errorf("%d of 2 first steps saw the other session start within 5 s: a hot session waited for a busy worker while another idled", n)
	}
}

// TestQuantumBatchingReducesPops pins the batched refinement quantum:
// with quantum 8 and 9 resolution levels, a lone session costs exactly
// two queue pops — one hot pop for the regime's first step, one cold
// pop whose batch runs the remaining 8 — instead of nine.
func TestQuantumBatchingReducesPops(t *testing.T) {
	cfg := Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 9,
			TargetPrecision:  1.05,
			PrecisionStep:    0.1,
		},
		Workers:     1,
		Quantum:     8,
		IdleTimeout: -1,
	}
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
	if _, err := svc.WaitTarget(id); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Steps != 9 {
		t.Errorf("steps = %d, want 9 (one per resolution level)", st.Steps)
	}
	if pops := st.Pops; pops != 2 {
		t.Errorf("pops = %d, want 2 (hot pop + one cold batch)", pops)
	}
}

// TestQuantumPreemptHotArrival pins the interactivity guard: a hot
// arrival (new session) cuts a running cold batch short at the next
// step boundary instead of waiting out the whole quantum.
func TestQuantumPreemptHotArrival(t *testing.T) {
	cfg := Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 20,
			TargetPrecision:  1.01,
			PrecisionStep:    0.05,
		},
		Workers:     1,
		Quantum:     64, // would cover the whole refinement in one batch
		IdleTimeout: -1,
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	q5, _ := workload.Find(blocks, "Q5")
	q4, _ := workload.Find(blocks, "Q4")

	a, err := svc.Create(q5.Query)
	if err != nil {
		t.Fatal(err)
	}
	// Resolution ≥ 1 means the worker is inside A's cold batch (the hot
	// pop only runs resolution 0, and quantum 64 covers the rest).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Poll(a)
		if err != nil {
			t.Fatal(err)
		}
		if st.Resolution >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session A never reached resolution 1")
		}
		time.Sleep(100 * time.Microsecond)
	}
	b, err := svc.Create(q4.Query)
	if err != nil {
		t.Fatal(err)
	}
	for svc.Stats().Preempts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hot arrival never preempted the cold batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The preempted worker serves B's first (hot) step before finishing
	// A's refinement.
	for {
		st, err := svc.Poll(b)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot session B never received a step")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAdmissionMaxActive pins the session-count limit: Create fails
// with ErrOverloaded at the limit and admits again after a Close.
func TestAdmissionMaxActive(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxActiveSessions = 2
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	ids := make([]string, 2)
	for i := range ids {
		if ids[i], err = svc.Create(blk.Query); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Create(blk.Query); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third create returned %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if err := svc.Close(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(blk.Query); err != nil {
		t.Errorf("create after close failed: %v", err)
	}
}

// TestAdmissionMaxQueueDepth pins the backlog limit: flooding a
// one-worker service with slow sessions must trip ErrOverloaded once
// the scheduler backlog exceeds the configured depth.
func TestAdmissionMaxQueueDepth(t *testing.T) {
	cfg := Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 20,
			TargetPrecision:  1.01,
			PrecisionStep:    0.05,
		},
		Workers:       1,
		MaxQueueDepth: 2,
		IdleTimeout:   -1,
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q5")
	rejected := 0
	for i := 0; i < 20; i++ {
		_, err := svc.Create(blk.Query)
		switch {
		case err == nil:
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Error("20 rapid creates against a depth-2 queue never hit ErrOverloaded")
	}
	if st := svc.Stats(); st.Rejected != uint64(rejected) {
		t.Errorf("Rejected = %d, want %d", st.Rejected, rejected)
	}
}

// TestStepGapPercentileNearestRank pins percentileDur to the nearest
// rank its doc promises: the ⌈p·n⌉-th smallest of n samples.
func TestStepGapPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int // 1-based rank
	}{
		{1, 0.99, 1},
		{10, 0.99, 10},
		{50, 0.99, 50},
		{100, 0.99, 99},
		{256, 0.99, 254},
		{100, 0.5, 50},
		{10, 0, 1},
		{10, 1, 10},
	} {
		ds := make([]time.Duration, tc.n)
		for i := range ds {
			ds[i] = time.Duration(tc.n - i) // descending: the sort matters
		}
		if got := percentileDur(ds, tc.p); got != time.Duration(tc.want) {
			t.Errorf("n=%d p=%v: sample %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	if got := percentileDur(nil, 0.99); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

// TestStepGapMetric pins the starvation audit: multi-step sessions
// report a positive max inter-step gap, and the service aggregates a
// positive p99 both while sessions live and after they finish.
func TestStepGapMetric(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q4")
	ids := make([]string, 2)
	for i := range ids {
		if ids[i], err = svc.Create(blk.Query); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		st, err := svc.WaitTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxStepGap <= 0 {
			t.Errorf("session %s: MaxStepGap = %v after %d steps, want > 0", id, st.MaxStepGap, st.Steps)
		}
	}
	if st := svc.Stats(); st.StepGapP99 <= 0 {
		t.Errorf("StepGapP99 = %v with live multi-step sessions, want > 0", st.StepGapP99)
	}
	for _, id := range ids {
		if err := svc.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	// Finished sessions persist in the registry's gap ring.
	if st := svc.Stats(); st.StepGapP99 <= 0 {
		t.Errorf("StepGapP99 = %v after sessions finished, want > 0 from the archive ring", st.StepGapP99)
	}
}
