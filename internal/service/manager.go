package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/trace"
)

// State is a managed session's lifecycle state.
type State int

// Session lifecycle: Refining sessions receive scheduler steps until
// they reach the target precision (AtTarget); both count as live.
// Selected, Closed and Expired are terminal.
const (
	// Refining means the scheduler is still sharpening the frontier of
	// the current bounds regime.
	Refining State = iota
	// AtTarget means the current regime reached maximal resolution; the
	// session idles (cost-free) until a bounds change or termination.
	AtTarget
	// Selected means the user picked a plan; the session is finished.
	Selected
	// Closed means the client closed the session without selecting.
	Closed
	// Expired means the idle janitor reclaimed the session.
	Expired
	// Failed means a refinement step or warm restore panicked (or failed
	// validation); the captured error stays pollable until the client
	// closes the session or the janitor reaps it.
	Failed
	// TimedOut means the session hit its wall-clock deadline before
	// terminating; reclaimed by the janitor like Expired.
	TimedOut
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Refining:
		return "refining"
	case AtTarget:
		return "at-target"
	case Selected:
		return "selected"
	case Closed:
		return "closed"
	case Expired:
		return "expired"
	case Failed:
		return "failed"
	case TimedOut:
		return "timed-out"
	default:
		return "unknown"
	}
}

// Live reports whether the session still serves polls and steps.
func (s State) Live() bool { return s == Refining || s == AtTarget }

// managed is one tenant session: the session-package control state plus
// the bookkeeping the scheduler, janitor and cache need. mu serializes
// all access to sess and the fields below it — optimizer state is not
// concurrency-safe, so scheduler steps, polls, bounds changes and
// snapshots all take the lock. queued/hot/seq are owned by the
// scheduler's mutex instead (lock order: scheduler.mu is never held
// while taking m.mu and vice versa; see DESIGN.md D10).
type managed struct {
	id string

	// key is what the session's exports are admitted under; its Perm is
	// exported with them so isomorphic lookups can compose the rewriting
	// onto their own labeling. Only FP is set with the cache disabled.
	key query.Keys

	mu          sync.Mutex
	sess        *session.Session
	state       State
	lastTouch   time.Time // last client interaction (create/poll/bounds/select)
	created     time.Time
	prov        provenance   // how the plan state was derived (warmstart.go)
	provLabel   string       // prov, plus the source entry's origin: what Poll and the trace report
	src         query.Keys   // cache entry the warm start was derived from (zero when cold)
	drift       driftOutcome // how statistics drift resolved at the create
	statsEpoch  uint64       // statistics-epoch label at creation (stamps exports)
	steps       int          // scheduler steps executed
	snapshotted bool         // plan state already exported to the cache

	// failErr and failStack carry the recovered panic (or validation
	// failure) of a Failed session; surfaced in Poll responses and the
	// slow-session/trace audit trail. Set exactly once, under mu, at the
	// Failed transition.
	failErr   string
	failStack string

	// firstFrontier is the latency from session creation to the first
	// step that produced a non-empty frontier (0 until then) — the
	// interactive metric the warm-start cache exists to improve.
	firstFrontier time.Duration

	// lastStep and maxStepGap drive the starvation audit: maxStepGap is
	// the session's largest observed start-to-start interval between
	// consecutive scheduler steps, the time a session waited for service
	// while runnable. Stats aggregates the p99 across sessions so the
	// fair-share claim stays observable under skewed load.
	lastStep   time.Time
	maxStepGap time.Duration

	// trace is the session's lifecycle span ring (DESIGN.md D13). It has
	// no lock of its own: appends and snapshots happen under mu, the
	// lock the step path already holds. Nil for bare test fixtures.
	trace *trace.Trace

	// enqueuedNS is the wall-clock stamp (UnixNano) of the session's
	// latest (re-)enqueue, taken by scheduler.enqueue before it acquires
	// the scheduler lock and claimed (Swap(0)) by the first step of the
	// servicing pop — the queue-wait metric rides these two reads
	// without extending the scheduler lock's critical section.
	enqueuedNS atomic.Int64

	// cond (on mu) is broadcast on every state transition; WaitTarget
	// blocks on it instead of polling. Nil for bare test fixtures.
	cond *sync.Cond
	// waiters counts goroutines blocked in WaitTarget. A waited-on
	// session is active client interaction, so the janitor never
	// expires it (lastTouch is only updated on call boundaries).
	waiters int

	// Scheduler-owned state, guarded by scheduler.mu: queue membership,
	// priority, and the enqueue stamp that validates queue entries (only
	// the entry carrying the current seq is live; stale entries from O(1)
	// hot promotion are skipped).
	queued, hot bool
	seq         uint64
}

// setState transitions the lifecycle state and wakes any WaitTarget
// callers. Callers hold m.mu.
func (m *managed) setState(s State) {
	m.state = s
	if m.cond != nil {
		m.cond.Broadcast()
	}
}

// touch records a client interaction for idle-expiry accounting.
// Callers hold m.mu.
func (m *managed) touch() { m.lastTouch = time.Now() }

// noteStep updates the starvation-audit bookkeeping at a step start
// and returns the start-to-start gap since the previous step (0 for
// the regime's first step), so the caller can feed the step-gap
// histogram from the timestamp this method already consumed. Callers
// hold m.mu.
func (m *managed) noteStep(now time.Time) time.Duration {
	var gap time.Duration
	if !m.lastStep.IsZero() {
		gap = now.Sub(m.lastStep)
		if gap > m.maxStepGap {
			m.maxStepGap = gap
		}
	}
	m.lastStep = now
	return gap
}

// gapRingSize bounds the ring of finished sessions' max inter-step gaps
// kept for the starvation-audit percentile.
const gapRingSize = 256

// manager is the session registry: id → managed session, plus idle
// expiry and the starvation audit's samples. Safe for concurrent use.
type manager struct {
	mu       sync.RWMutex
	sessions map[string]*managed

	// live mirrors len(sessions) lock-free, so admission control and
	// Stats read the session count without touching mu (the same gauge
	// pattern as scheduler.qLen).
	live atomic.Int32

	// gaps is a ring of max inter-step gaps of finished (selected,
	// closed, expired) sessions; live sessions contribute their current
	// maximum directly at Stats time.
	gaps   [gapRingSize]time.Duration
	gapN   int // total recorded (ring occupancy = min(gapN, gapRingSize))
	gapIdx int

	// liveScratch is appendGaps' reusable snapshot of the live sessions.
	// It is serialized by the service's statsMu (appendGaps is only
	// reached from Stats), so the stats path settles into zero
	// steady-state allocation without widening the registry lock.
	liveScratch []*managed
}

func newManager() *manager {
	return &manager{sessions: map[string]*managed{}}
}

// recordGap archives a finished session's max inter-step gap (zero
// gaps — sessions with fewer than two steps — carry no information and
// are dropped).
func (mg *manager) recordGap(d time.Duration) {
	if d <= 0 {
		return
	}
	mg.mu.Lock()
	mg.gaps[mg.gapIdx] = d
	mg.gapIdx = (mg.gapIdx + 1) % gapRingSize
	mg.gapN++
	mg.mu.Unlock()
}

// appendGaps appends the starvation samples — archived rings
// plus every live session's current maximum — to dst.
func (mg *manager) appendGaps(dst []time.Duration) []time.Duration {
	mg.mu.RLock()
	n := mg.gapN
	if n > gapRingSize {
		n = gapRingSize
	}
	dst = append(dst, mg.gaps[:n]...)
	live := mg.liveScratch[:0]
	for _, m := range mg.sessions {
		live = append(live, m)
	}
	mg.mu.RUnlock()
	for _, m := range live {
		m.mu.Lock()
		if g := m.maxStepGap; g > 0 {
			dst = append(dst, g)
		}
		m.mu.Unlock()
	}
	// Clear the references before parking the scratch: a stale pointer
	// here would pin a finished session's optimizer arena until the next
	// Stats call.
	for i := range live {
		live[i] = nil
	}
	mg.liveScratch = live[:0]
	return dst
}

func (mg *manager) add(m *managed) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	mg.sessions[m.id] = m
	mg.live.Store(int32(len(mg.sessions)))
}

func (mg *manager) get(id string) (*managed, bool) {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	m, ok := mg.sessions[id]
	return m, ok
}

func (mg *manager) remove(id string) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	delete(mg.sessions, id)
	mg.live.Store(int32(len(mg.sessions)))
}

func (mg *manager) count() int { return int(mg.live.Load()) }

// all returns a snapshot of the registered sessions.
func (mg *manager) all() []*managed {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	out := make([]*managed, 0, len(mg.sessions))
	for _, m := range mg.sessions {
		out = append(out, m)
	}
	return out
}

// sweep is the janitor pass over the registry: live sessions untouched
// for at least ttl become Expired, live sessions older than deadline
// become TimedOut (a hard wall clock — waiters are woken, not
// honored), and Failed sessions whose error has lingered unread past
// the same windows are silently reaped (their terminal observability
// was recorded at the failure). Either window may be <= 0 to disable
// it. The transitioned sessions are returned so the caller can record
// terminal observability outside the registry lock; sessions mid-step
// simply transition once the worker releases the lock.
func (mg *manager) sweep(ttl, deadline time.Duration) (expired, timedOut []*managed) {
	mg.mu.Lock()
	stale := make([]*managed, 0, len(mg.sessions))
	for _, m := range mg.sessions {
		stale = append(stale, m)
	}
	mg.mu.Unlock()

	now := time.Now()
	const (
		keep = iota
		expire
		timeout
		reapFailed
	)
	for _, m := range stale {
		m.mu.Lock()
		overDeadline := deadline > 0 && now.Sub(m.created) >= deadline
		idle := ttl > 0 && m.waiters == 0 && now.Sub(m.lastTouch) >= ttl
		action := keep
		var gap time.Duration
		switch {
		case m.state.Live() && overDeadline:
			m.setState(TimedOut)
			gap = m.maxStepGap
			action = timeout
		case m.state.Live() && idle:
			m.setState(Expired)
			gap = m.maxStepGap
			action = expire
		case m.state == Failed && m.waiters == 0 && (idle || (ttl <= 0 && overDeadline)):
			action = reapFailed
		}
		m.mu.Unlock()
		switch action {
		case timeout:
			mg.remove(m.id)
			mg.recordGap(gap)
			timedOut = append(timedOut, m)
		case expire:
			mg.remove(m.id)
			mg.recordGap(gap)
			expired = append(expired, m)
		case reapFailed:
			mg.remove(m.id)
		}
	}
	return expired, timedOut
}
