package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// scheduler is the service's fair-share refinement scheduler: a worker
// pool that time-slices bounded refinement quanta (up to a few
// consecutive session.Step calls, see Service.runSteps) across the
// active sessions. Two FIFO run queues implement the policy:
//
//   - hot holds sessions whose bounds just changed — the paper's regime
//     rule resets their resolution to 0, so their frontier is coarsest
//     and a step buys the most user-visible precision. Newly created
//     sessions start hot for the same reason. Workers always drain hot
//     before cold, and a hot arrival preempts a running cold quantum.
//   - cold holds idle-refining sessions cycling toward the target
//     precision. A session re-enters the cold queue after each quantum,
//     so every active session receives one quantum per queue cycle
//     (round-robin fair share) regardless of how expensive its query is.
//
// Sessions at maximal resolution leave the queues entirely until a
// bounds change reactivates them, so converged sessions cost nothing.
//
// Queue entries are validated lazily: each enqueue stamps the session
// with a fresh sequence number and only the entry carrying the current
// stamp is live, so promoting a cold session to hot is O(1) — push a
// freshly stamped hot entry and let pop skip the stale cold one.
//
// Every worker waits on the one cond, and every push signals it under
// the same mutex the waiter checks the queues under, so a push is never
// slept through (DESIGN.md D10).
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	hot     entryQueue
	cold    entryQueue
	stopped bool
	wg      sync.WaitGroup

	// hotLen/qLen count live (non-stale) entries; lock-free reads back
	// the quantum-preemption check and admission control.
	hotLen atomic.Int32
	qLen   atomic.Int32

	// Observability counters (Stats, /metrics), created on the
	// registry by newScheduler.
	pops     *metrics.Counter // queue pops serviced by the workers
	preempts *metrics.Counter // cold quanta cut short by a hot arrival
}

// entry is one queue slot; it is live iff seq matches the session's
// current enqueue stamp (stale entries are skipped on pop).
type entry struct {
	m   *managed
	seq uint64
}

// entryQueue is a FIFO of entries over a reusable backing slice: pops
// advance a head index and the buffer compacts once the dead prefix
// dominates, so steady-state push/pop does not allocate.
type entryQueue struct {
	buf  []entry
	head int
}

func (q *entryQueue) push(e entry) { q.buf = append(q.buf, e) }

func (q *entryQueue) pop() (entry, bool) {
	if q.head >= len(q.buf) {
		return entry{}, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = entry{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = entry{}
		}
		q.buf, q.head = q.buf[:n], 0
	}
	return e, true
}

func (q *entryQueue) reset() { q.buf, q.head = nil, 0 }

func newScheduler(r *metrics.Registry) *scheduler {
	sc := &scheduler{
		pops:     r.Counter("moqod_scheduler_pops_total", "Queue pops serviced by the workers.", ""),
		preempts: r.Counter("moqod_scheduler_preempts_total", "Cold quanta cut short by a hot arrival.", ""),
	}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// start launches the workers. run executes one scheduling quantum; hot
// reports which queue the session was popped from.
func (sc *scheduler) start(workers int, run func(m *managed, hot bool)) {
	for i := 0; i < workers; i++ {
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			for {
				m, hot, ok := sc.next()
				if !ok {
					return
				}
				run(m, hot)
			}
		}()
	}
}

// enqueue makes the session runnable. hot selects the priority queue;
// enqueueing an already-queued session is a no-op except that a hot
// request promotes a cold entry in place — O(1) via a fresh stamp, the
// stale cold entry is skipped on pop.
func (sc *scheduler) enqueue(m *managed, hot bool) {
	// Queue-wait stamp, taken before the lock so the critical section
	// stays exactly as long as before instrumentation (DESIGN.md D13).
	// A hot promotion of an already-queued session restamps: its wait
	// restarts from the promotion, matching the entry pop actually
	// serviced.
	m.enqueuedNS.Store(time.Now().UnixNano())
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stopped {
		return
	}
	if m.queued {
		if hot && !m.hot {
			m.hot = true
			m.seq++
			sc.hot.push(entry{m, m.seq})
			sc.hotLen.Add(1)
			sc.cond.Signal()
		}
		return
	}
	m.queued, m.hot = true, hot
	m.seq++
	if hot {
		sc.hot.push(entry{m, m.seq})
		sc.hotLen.Add(1)
	} else {
		sc.cold.push(entry{m, m.seq})
	}
	sc.qLen.Add(1)
	sc.cond.Signal()
}

// popLocked takes the next live entry, preferring hot; callers hold mu.
func (sc *scheduler) popLocked() (*managed, bool, bool) {
	for {
		e, ok := sc.hot.pop()
		if !ok {
			break
		}
		if e.seq == e.m.seq && e.m.queued {
			e.m.queued, e.m.hot = false, false
			sc.hotLen.Add(-1)
			sc.qLen.Add(-1)
			return e.m, true, true
		}
	}
	for {
		e, ok := sc.cold.pop()
		if !ok {
			return nil, false, false
		}
		if e.seq == e.m.seq && e.m.queued {
			e.m.queued, e.m.hot = false, false
			sc.qLen.Add(-1)
			return e.m, false, true
		}
	}
}

// next blocks for the next runnable session, waiting on cond until a
// push or a stop. Returns ok=false once the scheduler stops.
func (sc *scheduler) next() (*managed, bool, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for !sc.stopped {
		if m, hot, ok := sc.popLocked(); ok {
			sc.pops.Inc()
			return m, hot, true
		}
		sc.cond.Wait()
	}
	return nil, false, false
}

// hotPending reports whether a hot session awaits a worker (the
// quantum-preemption signal; lock-free).
func (sc *scheduler) hotPending() bool { return sc.hotLen.Load() > 0 }

// queueLen returns the live queue length (instrumentation, admission).
func (sc *scheduler) queueLen() int { return int(sc.qLen.Load()) }

// stop shuts the worker pool down and waits for in-flight quanta.
func (sc *scheduler) stop() {
	sc.mu.Lock()
	sc.stopped = true
	sc.hot.reset()
	sc.cold.reset()
	sc.hotLen.Store(0)
	sc.qLen.Store(0)
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.wg.Wait()
}
