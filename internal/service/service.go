// Package service runs many concurrent anytime-optimization sessions in
// one process: the multi-tenant subsystem behind the moqod server. It
// combines
//
//   - a session manager with a full lifecycle (create, poll frontier,
//     set bounds, select plan, close, idle expiry),
//   - a fair-share scheduler whose worker pool time-slices bounded
//     refinement quanta across sessions, prioritizing sessions whose
//     bounds just changed (their resolution resets to 0 per the
//     paper's regime rule) over idle-refining ones, and
//   - a warm-start plan cache, so a session on an already-seen query
//     shape restores cached scan and join plan sets instead of
//     rebuilding them from scratch, a session on a *new* shape that is
//     isomorphic to a cached one (the same join graph under a
//     permutation of table IDs, query.CanonicalFingerprint) restores
//     the cached snapshot rewritten onto its labeling
//     (core.Snapshot.Remap), and a session whose statistics drifted
//     re-costs the pre-drift snapshot. With Config.StoreDir set, the
//     persistent snapshot store (internal/store) is the cache's cold
//     tier: admitted snapshots are written through to disk off the hot
//     path, and a cache miss asks the store, so warm starts survive
//     evictions and process restarts (DESIGN.md D12, D19).
//
// The paper's interactive-speed guarantee is per optimizer invocation;
// this package extends it to many users by making one invocation
// (session.Step) the preemption granularity: a popped cold session runs
// up to Config.Quantum consecutive steps to amortize queue round-trips,
// but a hot arrival (bounds change, new session) cuts the quantum short
// at the next step boundary, so no tenant can monopolize a worker for
// longer than one bounded refinement step past a hot arrival.
package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eventlog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/snapcodec"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config configures a Service. Opt is required; zero values elsewhere
// get defaults.
type Config struct {
	// Opt is the per-session optimizer configuration. Hooks must be
	// unset: they would be invoked concurrently from many workers.
	Opt core.Config

	// Workers is the refinement worker-pool size; defaults to
	// runtime.GOMAXPROCS(0).
	Workers int

	// Shards is ignored: the service runs one scheduler, one session
	// registry and one cache (DESIGN.md D10). It stays only so callers
	// that still set it compile.
	Shards int

	// Quantum is the maximum number of consecutive refinement steps a
	// popped cold session runs before re-entering its queue (amortizing
	// queue round-trips); a pending hot session preempts the quantum at
	// the next step boundary. Hot pops always run exactly one step —
	// their next step is the most user-visible one, so they return to
	// the queue immediately. 0 defaults to 4; 1 restores strict
	// one-step-per-pop round-robin.
	Quantum int

	// MaxActiveSessions bounds the number of live sessions; Create
	// fails with ErrOverloaded at the limit. 0 means unlimited. The
	// check reads a lock-free gauge, so concurrent creates can
	// overshoot the limit by at most the create concurrency —
	// admission control is load shedding, not a hard resource cap.
	MaxActiveSessions int

	// MaxQueueDepth bounds the scheduler backlog (queued, not yet
	// running sessions); Create fails with
	// ErrOverloaded at the limit. 0 means unlimited. Approximate under
	// concurrency, like MaxActiveSessions.
	MaxQueueDepth int

	// IdleTimeout expires sessions with no client interaction for this
	// long; defaults to 5 minutes. Negative disables expiry.
	IdleTimeout time.Duration

	// SessionDeadline bounds a session's total wall-clock lifetime:
	// live sessions older than this transition to TimedOut on the next
	// janitor sweep, regardless of client activity (waiters are woken,
	// not honored — the deadline is a hard resource cap). 0 disables.
	SessionDeadline time.Duration

	// JanitorInterval is the expiry sweep period; defaults to a quarter
	// of the tighter of IdleTimeout and SessionDeadline, and never to
	// less than a millisecond.
	JanitorInterval time.Duration

	// CacheCapacity bounds the warm-start cache (snapshots); 0 defaults
	// to 256, negative disables the cache.
	CacheCapacity int

	// StoreDir, when non-empty, enables the persistent snapshot store
	// (internal/store) rooted at this directory: cache-admitted
	// snapshots are written through to disk off the hot path, and a
	// cache miss reads the store's record back, so a restarted service
	// (or a fresh process on the same directory) keeps its warm starts.
	// Requires the cache (CacheCapacity >= 0).
	StoreDir string

	// StoreOptions tunes the store's segment size, compaction
	// threshold and writer queue; Dir and CfgEcho are set by the
	// service. Zero values take the store's defaults.
	StoreOptions store.Options

	// Stats, when set, is the versioned statistics catalog whose epoch
	// labels snapshots exported by this service. The service never reads
	// table statistics from it (queries carry their own catalog); it
	// only stamps and raises the epoch so drift observability stays
	// monotonic across statistics updates and restarts. Nil leaves every
	// snapshot labeled epoch 0.
	Stats *catalog.Versioned

	// DriftThreshold is the relative-change boundary between small drift
	// (re-cost the cached plan sets and trust them) and large drift
	// (re-cost, then resume refinement with regenerated alternatives);
	// <= 0 uses core.DefaultDriftThreshold.
	DriftThreshold float64

	// SlowSession, when positive, invokes SlowSessionLog for every
	// session whose creation→terminal wall time reaches the threshold,
	// handing over the session's full lifecycle trace (moqod wires this
	// to the -slow-session flag and logs the formatted trace).
	SlowSession time.Duration

	// SlowSessionLog receives slow sessions' traces; nil disables the
	// hook even when SlowSession is set. Called once per terminal
	// transition, outside all service locks — the callback may block
	// (e.g. on a log write) without stalling workers holding locks.
	SlowSessionLog func(total time.Duration, d trace.Data)

	// FaultHook, when set, runs at the top of every refinement step
	// (under m.mu, inside the step's panic recovery) with the session ID
	// and its completed-step count — the injection point the panic-
	// isolation tests use to make a chosen session's step panic. Nil in
	// production; the step path pays one nil check for it (D13).
	FaultHook func(id string, step int)

	// Events, when set, receives the service's structured lifecycle
	// events (session created/finished, drain progress) — never emitted
	// from the refinement step path (DESIGN.md D17). Nil disables
	// emission; the eventlog methods are nil-safe so call sites carry no
	// checks.
	Events *eventlog.Log

	// Bootstrapped marks a store directory whose segments were pulled
	// from a peer: sessions warm-starting from a record the store held
	// when it opened report "-bootstrap" in their provenance (e.g.
	// "exact-bootstrap") instead of the "-replay" of a node restarting on
	// its own directory.
	Bootstrapped bool
}

// ShardStats repeats the scheduler's counters from Stats as the one
// element of Stats.Shards, the shape /statz readers written for a
// sharded scheduler still parse.
type ShardStats struct {
	Steps, Pops, Preempts uint64
}

// Stats are cumulative service counters plus current gauges.
type Stats struct {
	// Created, Selected, Closed and Expired count session lifecycle
	// transitions since service start.
	Created, Selected, Closed, Expired uint64
	// Failed counts sessions killed by a recovered step panic (or a
	// poisoned warm start); TimedOut counts sessions reclaimed at their
	// wall-clock deadline.
	Failed, TimedOut uint64
	// Poisoned counts warm-start sources quarantined after a restore or
	// first post-restore step failure (evicted from the cache and
	// superseded in the store).
	Poisoned uint64
	// Rejected counts Create calls refused by admission control.
	Rejected uint64
	// Steps counts scheduler-executed refinement steps, Pops the queue
	// pops that ran them (the Steps/Pops ratio shows the quantum's
	// round-trip amortization), and Preempts the cold quanta a hot
	// arrival cut short.
	Steps, Pops, Preempts uint64
	// WarmStarts counts sessions created from a cached snapshot
	// (exact and isomorphic combined).
	WarmStarts uint64
	// IsoWarmStarts counts the subset of WarmStarts that restored a
	// snapshot cached under a different table labeling, rewritten via
	// the canonical tier (cross-shape reuse).
	IsoWarmStarts uint64
	// DriftRecosted counts sessions warm-started from a pre-drift
	// snapshot whose statistics drift classified small: the cached plan
	// sets were re-costed under the live statistics and trusted.
	DriftRecosted uint64
	// DriftResumed counts warm starts across large statistics drift:
	// the snapshot was re-costed and refinement resumed with the pair
	// memo dropped, regenerating alternatives against the cached
	// context.
	DriftResumed uint64
	// DriftQuarantined counts stale-tier hits whose drift classified
	// incompatible (topology, index or sampling-offer changes) or whose
	// re-cost failed: the entry was quarantined and the session
	// cold-started.
	DriftQuarantined uint64
	// StatsEpoch is the current statistics-epoch label (0 when no
	// versioned catalog is configured).
	StatsEpoch uint64
	// RemapTotal is the cumulative wall time spent rewriting snapshots
	// for isomorphic restores (at session creation, never on the
	// refinement hot path). Durations marshal as raw nanosecond
	// integers, so the JSON name carries the unit explicitly.
	RemapTotal time.Duration `json:"RemapTotalNs"`
	// Active is the current number of live sessions.
	Active int
	// Queued is the current scheduler run-queue length.
	Queued int
	// StepGapP99 is the starvation audit: the 99th percentile, across
	// recent and live sessions, of each session's maximum start-to-start
	// interval between consecutive refinement steps — how long the most
	// starved sessions waited for service while runnable. Serialized in
	// explicit nanoseconds, like RemapTotal.
	StepGapP99 time.Duration `json:"StepGapP99Ns"`
	// Cache summarizes the warm-start cache (zero value if disabled).
	Cache CacheStats
	// Store summarizes the persistent snapshot store (zero value when
	// StoreDir is unset).
	Store store.Stats
	// StoreReadsBoot and StoreReadsHit count the records loaded from the
	// store for the cache — before the node reported ready (the
	// checkpoint's hot set) and on a cache miss the store answered — and
	// StoreReadErrors those of them the filesystem failed (the session
	// started cold; nothing was quarantined).
	StoreReadsBoot, StoreReadsHit, StoreReadErrors uint64
	// Draining reports that Drain has started: new sessions are being
	// refused with ErrDraining. It never goes false again.
	Draining bool
	// DrainConverged and DrainCheckpointed split the live sessions the
	// drain found: those that reached their target inside the grace
	// window versus those checkpointed mid-refinement to the store.
	DrainConverged, DrainCheckpointed uint64
	// Shards holds Steps, Pops and Preempts once more, as one element.
	Shards []ShardStats
}

// ErrNoSession reports an ID that names no registered session.
var ErrNoSession = errors.New("service: no such session")

// ErrPlanIndex reports a Select index outside a non-empty published
// frontier.
var ErrPlanIndex = errors.New("service: plan index outside the frontier")

// ErrFrontierMoved reports that refinement steps changed the frontier
// between the poll a Select index refers to and the Select itself; the
// client should re-poll and re-decide.
var ErrFrontierMoved = errors.New("service: frontier moved since poll")

// ErrOverloaded reports that admission control refused a new session:
// the service is at MaxActiveSessions or MaxQueueDepth. Clients should
// retry after a backoff (moqod maps this to HTTP 429 with Retry-After).
var ErrOverloaded = errors.New("service: overloaded")

// OverloadError is the structured admission refusal: errors.Is(err,
// ErrOverloaded) still matches, and moqod serializes the fields into
// the 429 JSON body so clients can log which limit tripped.
type OverloadError struct {
	// Kind names the limit that refused the create: "sessions"
	// (MaxActiveSessions) or "queue" (MaxQueueDepth).
	Kind string
	// N and Limit are the observed load and the configured cap.
	N, Limit int
}

// Error formats the refusal; the prefix matches errors.Is via Unwrap.
func (e *OverloadError) Error() string {
	noun := "active"
	if e.Kind == "queue" {
		noun = "queued"
	}
	return fmt.Sprintf("%v: %d %s sessions (limit %d)", ErrOverloaded, e.N, noun, e.Limit)
}

// Unwrap ties the typed error to the ErrOverloaded sentinel.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Status is a poll result: the session's state and current frontier.
type Status struct {
	// ID is the session ID.
	ID string
	// Query is the session's query display name.
	Query string
	// State is the lifecycle state.
	State State
	// WarmStarted reports whether the session began from the cache.
	WarmStarted bool
	// Drift reports how statistics drift resolved for this session:
	// "recosted" (small drift, cached plans re-costed), "resumed" (large
	// drift, refinement resumed over re-costed state), "quarantined"
	// (incompatible drift or failed re-cost; the session cold-started),
	// or "" when no drift was involved.
	Drift string
	// Provenance names where the session's plan state came from:
	// "cold", "exact", "iso", "recost" or "resume", with a
	// "-replay"/"-bootstrap" suffix when the satisfying cache entry was
	// itself replayed from the local store or pulled from a peer.
	Provenance string
	// Resolution is the last step's resolution (-1 before any step).
	Resolution int
	// Steps is the number of refinement steps executed so far.
	Steps int
	// Bounds is the session's current bound vector.
	Bounds cost.Vector
	// Frontier is the current visualization input as the session's last
	// step published it — the non-dominated result plans of the focus in
	// ascending cost order (shared immutable slice and plan nodes;
	// callers must not mutate). The nodes are backed by the
	// session's arena: in-process callers keeping them past the
	// session's lifetime should copy what they need (Select returns a
	// detached copy for exactly this reason); callers serializing to a
	// wire format (moqod) are unaffected.
	Frontier []*plan.Node
	// Rendered holds the rendered JSON of the plans the session
	// publishes from its snapshot, shared by every session restored from
	// it (core.RenderTable); nil for a cold session.
	Rendered *core.RenderTable
	// FirstFrontier is the creation→first-non-empty-frontier latency
	// (0 until one exists).
	FirstFrontier time.Duration
	// MaxStepGap is the session's largest observed interval between
	// consecutive refinement steps (the per-session starvation metric).
	MaxStepGap time.Duration
	// Err is the captured failure of a Failed session (a recovered step
	// panic's value); empty otherwise. The stack stays server-side, in
	// the logs and the trace archive.
	Err string
}

// Service is the concurrent anytime-optimization subsystem. Create one
// with New and release it with Shutdown.
type Service struct {
	cfg     Config
	mgr     *manager
	sched   *scheduler
	cache   *PlanCache                           // nil when disabled
	store   *store.Store                         // persistent snapshot store; nil when disabled
	cold    func(query.Tier, string) (Hit, bool) // s.fromStore with a store, else nil
	quantum int

	// fetching guards the store's records against a second read and
	// decode while the first is in flight: fromStore registers one
	// flight per fingerprint under fetchMu, and every concurrent first
	// use of the record waits for its outcome.
	fetchMu  sync.Mutex
	fetching map[string]*flight
	obs      *Observability // metric instruments + trace archive (never nil)

	// statsMu serializes Stats callers so the starvation-audit scratch
	// (gapScratch here, the manager's liveScratch) can be reused
	// without racing; it is never held with the registry lock.
	statsMu    sync.Mutex
	gapScratch []time.Duration

	nextID      atomic.Uint64
	stopping    atomic.Bool
	janitorStop chan struct{}

	// Drain state (DESIGN.md D16). draining flips once, before any other
	// drain work, so Create refuses new sessions for the entire window in
	// which in-flight ones converge or checkpoint; it never flips back.
	// drainMu/drainDone make Drain idempotent: the first caller runs the
	// drain, later callers block until it finishes and read the same
	// counts (obs.drainConverged, obs.drainCheckpointed). admitMu orders
	// admission against the flip: Create checks draining again and
	// registers and queues the session under its read lock, and Drain
	// flips draining under its write lock, so every session admitted
	// before the flip is in the drain's sweep.
	draining  atomic.Bool
	admitMu   sync.RWMutex
	drainMu   sync.Mutex
	drainDone chan struct{}
}

// New validates the configuration, starts the worker pool and the idle
// janitor, and returns the running service.
func New(cfg Config) (*Service, error) {
	if cfg.Opt.Hooks.PlanGenerated != nil || cfg.Opt.Hooks.PairCombined != nil ||
		cfg.Opt.Hooks.CandidateRetrieved != nil {
		return nil, fmt.Errorf("service: Opt.Hooks must be unset (hooks are not concurrency-safe)")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("service: Workers %d < 1", cfg.Workers)
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 4
	}
	if cfg.Quantum < 1 {
		return nil, fmt.Errorf("service: Quantum %d < 1", cfg.Quantum)
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.JanitorInterval <= 0 {
		// Sweep at a quarter of the tightest enabled window so neither
		// idle expiry nor the session deadline overshoots by more than
		// ~25% (the janitor also runs with expiry disabled when only a
		// deadline is configured). The floor keeps a nanosecond-scale
		// window from deriving the zero period NewTicker panics on.
		base := cfg.IdleTimeout
		if base <= 0 || (cfg.SessionDeadline > 0 && cfg.SessionDeadline < base) {
			base = cfg.SessionDeadline
		}
		cfg.JanitorInterval = max(base/4, time.Millisecond)
	}
	s := &Service{cfg: cfg, quantum: cfg.Quantum, janitorStop: make(chan struct{})}
	// The instruments must exist before any worker can run a step
	// (runSteps records into them unconditionally).
	s.obs = newObservability(cfg.CacheCapacity >= 0, cfg.StoreDir != "")
	if cfg.CacheCapacity >= 0 {
		s.cache = NewPlanCache(cfg.CacheCapacity, s.obs.Registry)
	}
	if cfg.StoreDir != "" {
		if s.cache == nil {
			return nil, fmt.Errorf("service: StoreDir requires the warm-start cache (CacheCapacity >= 0)")
		}
		echo, err := core.ConfigFingerprint(cfg.Opt)
		if err != nil {
			return nil, fmt.Errorf("service: StoreDir needs a valid optimizer config: %w", err)
		}
		so := cfg.StoreOptions
		so.Dir = cfg.StoreDir
		so.CfgEcho = echo
		if so.Events == nil {
			so.Events = cfg.Events
		}
		st, err := store.Open(so)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.cold = s.fromStore
		s.fetching = map[string]*flight{}
		s.replay()
		// Epoch labels must stay monotonic across restarts: raise the
		// versioned catalog to the newest label the store has seen, so a
		// post-restart statistics update never reuses a label that
		// already stamps persisted records.
		if cfg.Stats != nil {
			cfg.Stats.EnsureAtLeast(st.MaxStatsEpoch())
		}
	}
	s.mgr = newManager()
	s.sched = newScheduler(s.obs.Registry)
	s.sched.start(cfg.Workers, s.runSteps)
	if cfg.IdleTimeout > 0 || cfg.SessionDeadline > 0 {
		go s.janitor()
	} else {
		close(s.janitorStop)
	}
	s.registerMetrics()
	return s, nil
}

// replay makes the checkpoint's hot set resident before New returns,
// the way a buffer pool reloads the pages that were hot at shutdown
// (DESIGN.md D19): the hot fingerprints still live in the store, as
// many as the cache holds, are read and decoded on fetchHot's
// goroutines and admitted once all of them are done, least recently
// used first, so the cache's LRU order is the previous life's. Every
// other record stays on disk until a cache miss asks the store for it.
// The hot set is advice about when to pay a read and a decode, never
// about what is served: absent, damaged or stale, the node boots all
// the same and pays on first use instead.
func (s *Service) replay() {
	hint := s.store.Hot()
	var hot []query.Keys
	seen := make(map[string]bool, len(hint))
	for _, fp := range hint {
		if rec, _, ok := s.store.Find(query.TierExact, fp); ok && !seen[fp] && len(hot) < s.cache.capacity {
			seen[fp] = true
			hot = append(hot, rec.Keys)
		}
	}
	origin := originReplay
	if s.cfg.Bootstrapped {
		origin = originBootstrap
	}
	t0 := time.Now()
	snaps, errs := s.fetchHot(hot)
	for i := len(hot) - 1; i >= 0; i-- {
		switch err := errs[i]; {
		case err == nil:
			s.cache.admit(cacheItem{Keys: hot[i], snap: snaps[i], origin: origin})
		case poisonous(err):
			s.quarantine(hot[i], true)
		}
	}
	fetch := time.Since(t0)
	st := s.store.Stats()
	s.cfg.Events.Emit(eventlog.LevelInfo, "service", "snapshot store replayed",
		eventlog.Fint("loaded", int64(st.Loaded)),
		eventlog.Fint("live", int64(st.LiveRecords)),
		eventlog.Fint("adopted_segments", int64(st.AdoptedSegments)),
		eventlog.Fint("adopted_records", int64(st.AdoptedRecords)),
		eventlog.F("scanned_mb", strconv.FormatFloat(float64(st.ScanBytes)/(1<<20), 'f', 1, 64)),
		eventlog.F("scan_ms", strconv.FormatFloat(float64(st.ScanTotal)/float64(time.Millisecond), 'f', 1, 64)),
		eventlog.Fint("rejected", int64(st.Rejected)),
		eventlog.Fint("corrupted", int64(st.Corrupted)),
		eventlog.Fint("cache_entries", int64(s.cache.Stats().Entries)),
		eventlog.Fint("hinted", int64(len(hint))),
		eventlog.F("fetch_ms", strconv.FormatFloat(float64(fetch)/float64(time.Millisecond), 'f', 1, 64)),
		eventlog.Fint("decoded", int64(s.obs.DecodesBoot.Value())))
}

// fetchHot reads and decodes the hot set's records on
// min(GOMAXPROCS, len(hot)) goroutines, which take keys from a shared
// counter, and returns when all of them are done — no goroutine
// outlives New — with each record's snapshot or load error.
func (s *Service) fetchHot(hot []query.Keys) ([]*core.Snapshot, []error) {
	snaps, errs := make([]*core.Snapshot, len(hot)), make([]error, len(hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(hot)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(hot) {
					return
				}
				snaps[i], errs[i] = s.load(hot[i].FP, true)
			}
		}()
	}
	wg.Wait()
	return snaps, errs
}

// flight is one record's read and decode in progress; done closes once
// hit and found are set.
type flight struct {
	done  chan struct{}
	hit   Hit
	found bool
}

// fromStore is the cache's cold tier (DESIGN.md D19): it answers a key
// of tier t that the cache missed with the store's record for it, read,
// decoded and admitted — once, however many first uses race to it: the
// first registers a flight and the rest wait for its outcome, and one
// that finds the entry resident by then takes that. The read and the
// decode run under no lock, neither the cache's nor the store writer's.
// A record is labeled originReplay, or originBootstrap if it was present
// when the store opened and Config.Bootstrapped is set. A record
// the store does not hold is a miss. One that fails its checks or its
// decode is quarantined by the flight that found it, and one the disk
// failed to read buries nothing: both are hits without a snapshot, and
// only the latter is read again by the next use.
func (s *Service) fromStore(t query.Tier, key string) (Hit, bool) {
	rec, atOpen, ok := s.store.Find(t, key)
	if !ok {
		return Hit{}, false
	}
	k := rec.Keys
	s.fetchMu.Lock()
	f, waiting := s.fetching[k.FP]
	if !waiting {
		if h, ok := s.cache.lookup(query.TierExact, k.FP); ok {
			s.fetchMu.Unlock()
			return h, true
		}
		f = &flight{done: make(chan struct{}), hit: Hit{Src: k, Origin: originReplay}}
		if atOpen && s.cfg.Bootstrapped {
			f.hit.Origin = originBootstrap
		}
		s.fetching[k.FP] = f
	}
	s.fetchMu.Unlock()
	if !waiting {
		snap, err := s.load(k.FP, false)
		switch {
		case err == nil:
			s.cache.admit(cacheItem{Keys: k, snap: snap, origin: f.hit.Origin, used: true})
		case poisonous(err):
			s.quarantine(k, true)
		}
		f.hit.Snap, f.found = snap, !errors.Is(err, store.ErrNotStored)
		s.fetchMu.Lock()
		delete(s.fetching, k.FP)
		s.fetchMu.Unlock()
		close(f.done)
	}
	<-f.done
	return f.hit, f.found
}

// load is the store's Load, then snapcodec.Decode with every check it
// has, each timed and counted by when it ran. The encoded bytes live
// from the one to the other and no longer. A read the filesystem failed
// is counted, reported — one warn event, through the event log's rate
// limit: a dying disk must not flood the ring — and returned as
// errStoreRead: no verdict on the record. What Load or Decode rejected
// comes back as it is, for the caller to treat as poison.
func (s *Service) load(fp string, atBoot bool) (*core.Snapshot, error) {
	reads, decodes := s.obs.StoreReadsHit, s.obs.DecodesHit
	if atBoot {
		reads, decodes = s.obs.StoreReadsBoot, s.obs.DecodesBoot
	}
	t0 := time.Now()
	blob, err := s.store.Load(fp)
	s.obs.StoreRead.ObserveDuration(time.Since(t0))
	reads.Inc()
	if err != nil {
		if !errors.Is(err, store.ErrNotStored) && !errors.Is(err, store.ErrCorrupt) {
			s.obs.StoreReadErrors.Inc()
			s.cfg.Events.Emit(eventlog.LevelWarn, "service", "snapshot store read failed, starting cold",
				eventlog.F("fingerprint", fp), eventlog.Ferr(err))
			err = fmt.Errorf("%w: %v", errStoreRead, err)
		}
		return nil, err
	}
	t0 = time.Now()
	snap, err := snapcodec.Decode(blob)
	s.obs.Decode.ObserveDuration(time.Since(t0))
	decodes.Inc()
	return snap, err
}

// ErrShutdown reports that the service stopped while the call was in
// progress (e.g. a WaitTarget whose session can no longer converge
// because the workers are gone).
var ErrShutdown = errors.New("service: shut down")

// Shutdown stops the workers and the janitor; in-flight steps finish
// first. Sessions are not drained — callers wanting final state poll
// before shutting down. Goroutines blocked in WaitTarget are released
// with ErrShutdown.
func (s *Service) Shutdown() {
	select {
	case <-s.janitorStop:
	default:
		close(s.janitorStop)
	}
	first := !s.stopping.Swap(true)
	// Wake blocked WaitTarget callers: with the workers stopping, a
	// Refining session may never transition again.
	for _, m := range s.mgr.all() {
		m.mu.Lock()
		if m.cond != nil {
			m.cond.Broadcast()
		}
		m.mu.Unlock()
	}
	s.sched.stop()
	if s.store != nil && first {
		// Workers are stopped: no further cache puts can race the walk.
		// Close flushes the writer queue and leaves the checkpoint
		// (D22), whose hot set is this life's working set: the entries
		// it hit or Put, most recently used first. The next life fetches those before it reports ready
		// and leaves the rest of the store on disk (D19). A lost
		// checkpoint costs the next boot a scan and fetches on first
		// hits, nothing else — the snapshots still live in this
		// process's cache — so a failure is reported and dropped.
		if err := s.store.Close(s.cache.AppendUsed(nil)...); err != nil {
			s.cfg.Events.Emit(eventlog.LevelWarn, "service", "snapshot store close failed", eventlog.Ferr(err))
		}
	}
}

func (s *Service) janitor() {
	t := time.NewTicker(s.cfg.JanitorInterval)
	defer t.Stop()
	ttl := s.cfg.IdleTimeout
	if ttl < 0 {
		ttl = 0 // expiry disabled; the janitor runs for the deadline
	}
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			expired, timedOut := s.mgr.sweep(ttl, s.cfg.SessionDeadline)
			s.obs.expired.Add(uint64(len(expired)))
			s.obs.timedOut.Add(uint64(len(timedOut)))
			// sweep already removed the sessions and recorded their
			// starvation gaps; what remains is the terminal observability
			// (trace archive, end-to-end histogram, slow-session hook).
			for _, m := range expired {
				s.observeEnd(m, trace.KindExpired)
			}
			for _, m := range timedOut {
				s.observeEnd(m, trace.KindTimedOut)
			}
		}
	}
}

// reject counts one admission refusal and builds the structured
// overload error.
func (s *Service) reject(kind string, n, lim int) error {
	s.obs.rejected.Inc()
	return &OverloadError{Kind: kind, N: n, Limit: lim}
}

// quarantine buries a poisoned warm-start source: the entry leaves
// every cache tier and its store record is superseded by a tombstone,
// so neither this process nor any restart warm-starts from it again
// (D14: poison marking is monotonic and persisted).
//
// corrupt marks a store record that, read on its first use, failed the
// store's frame checks or failed to decode. Decoding every record at
// boot used to find such a record there, skip it and count it; now it
// is found here, so it is counted the same (Store.Corrupted), reported,
// and buried like any other poison — the next boot does not meet it
// again.
func (s *Service) quarantine(src query.Keys, corrupt bool) {
	if corrupt {
		s.store.NoteCorrupt() // only the store's records are read and decoded
	}
	if s.cache != nil {
		s.cache.Quarantine(src.FP)
	}
	if s.store != nil {
		s.store.Quarantine(src.FP)
	}
	s.obs.poisoned.Inc()
	if corrupt {
		s.cfg.Events.Emit(eventlog.LevelWarn, "service", "replayed record failed to decode, quarantined",
			eventlog.F("fingerprint", src.FP))
	}
}

// admit is the one place a session's snapshot enters the cache and,
// written through, the store (DESIGN.md D21); a record read from the
// store enters the cache alone. The store's Put only hands the
// (immutable) snapshot to its background writer and sheds it when the
// writer is backlogged; blocking is for the caller that must not shed.
// Callers have checked that the cache is on.
func (s *Service) admit(k query.Keys, snap *core.Snapshot, blocking bool) {
	s.cache.Put(k, snap)
	if s.store != nil {
		s.store.Put(k, snap, blocking)
	}
}

// statsEpoch returns the current statistics-epoch label (0 without a
// versioned catalog).
func (s *Service) statsEpoch() uint64 {
	if s.cfg.Stats == nil {
		return 0
	}
	return s.cfg.Stats.Version()
}

// Create registers a new session for q and schedules its first
// refinement step at hot priority. Where the session's plan
// state comes from — the cache's snapshot for q's exact fingerprint, an
// isomorphic query's rewritten onto q's labels, a pre-drift one re-costed,
// or a cold build — is the resolver's business (warmstart.go). At
// MaxActiveSessions or MaxQueueDepth, Create fails with ErrOverloaded
// before any optimizer state is built.
func (s *Service) Create(q *query.Query) (string, error) {
	callStart := time.Now()
	if q == nil {
		return "", fmt.Errorf("service: nil query")
	}
	if s.draining.Load() {
		// Draining is monotonic: once flipped, no session is ever
		// admitted again. The check below, under admitMu, is the one
		// that decides; this one saves a draining node the resolve.
		return "", ErrDraining
	}
	if lim := s.cfg.MaxActiveSessions; lim > 0 {
		if n := s.mgr.count(); n >= lim {
			return "", s.reject("sessions", n, lim)
		}
	}
	if lim := s.cfg.MaxQueueDepth; lim > 0 {
		if n := s.sched.queueLen(); n >= lim {
			return "", s.reject("queue", n, lim)
		}
	}
	// One canonicalization per session creation with the cache on; a
	// cache-less node hashes the exact fingerprint alone, for its events.
	k := query.Keys{FP: q.Fingerprint()}
	if s.cache != nil {
		k = q.Keys()
	}
	st, err := s.resolve(q, k)
	if err != nil {
		return "", err
	}
	// A drain that flipped during the resolve has swept without this
	// session and may have stopped the workers: refuse it instead of
	// queueing it where nothing will step it.
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return "", ErrDraining
	}
	if st.prov != provCold {
		s.obs.warmStarts.Inc()
	}
	if st.prov == provIso {
		s.obs.isoWarmStarts.Inc()
	}
	if st.drift != driftNone {
		s.obs.drift[st.drift].Inc()
	}
	now := time.Now()
	id := "s-" + strconv.FormatUint(s.nextID.Add(1), 10)
	m := &managed{
		id:         id,
		key:        k,
		sess:       st.sess,
		state:      Refining,
		lastTouch:  now,
		created:    now,
		prov:       st.prov,
		provLabel:  st.label(),
		src:        st.src,
		drift:      st.drift,
		statsEpoch: s.statsEpoch(),
		// An exact warm restore re-converging unbounded, as every new
		// session starts, ends in the very state the cached snapshot
		// holds, so re-exporting (a full deep copy, plus a store write) buys
		// nothing; skip it. A small-drift restore already admitted its
		// re-costed state under this session's own keys, so it skips too.
		// Isomorphic restores still export — they seed the exact tier for
		// their own labeling — and SetBounds clears the flag, so a new
		// regime's convergence always refreshes the cache.
		snapshotted: st.prov == provExact || st.prov == provRecost,
	}
	m.cond = sync.NewCond(&m.mu)
	// No lock needed yet: m is not published until mgr.add.
	tr := trace.Get(id, now)
	tr.AppendAt(trace.KindAdmit, 0, now.Sub(callStart), 0)
	if s.cache != nil {
		st.seed(tr)
	}
	tr.SetProvenance(m.provLabel)
	m.trace = tr
	s.mgr.add(m)
	s.obs.created.Inc()
	s.sched.enqueue(m, true)
	s.cfg.Events.EmitSession(eventlog.LevelInfo, "service", "session created", id, k.FP, Refining.String(),
		eventlog.F("provenance", m.provLabel))
	return m.id, nil
}

// runSteps executes one scheduling quantum for a popped session and
// decides its next scheduling: re-enqueue cold while refining, park it
// once the regime reaches maximal resolution (exporting a snapshot to
// the warm-start cache the first time), drop it when terminal.
//
// Hot pops run exactly one step (the regime's coarsest, most
// user-visible one) and requeue, keeping first-frontier latency low.
// Cold pops run up to the configured quantum of consecutive steps to
// amortize queue round-trips, releasing m.mu between steps so polls
// never wait for a whole batch, and re-check for hot arrivals at every
// step boundary — a waiting hot session preempts the quantum.
func (s *Service) runSteps(m *managed, hot bool) {
	k := s.quantum
	if hot {
		k = 1
	}
	// batchStart/batchEnd are offsets from the trace epoch: the first
	// step's start, reusing its noteStep timestamp, and the last step's
	// start plus the optimizer time its session.Record holds (no clock
	// read of their own). endBatch seals them into one KindSteps span
	// per pop (per batch, not per step, so traces stay within the ring
	// even for step-heavy sessions).
	var batchStart, batchEnd time.Duration
	ran := 0
	for i := 0; i < k; i++ {
		m.mu.Lock()
		if m.state != Refining {
			s.endBatch(m, batchStart, batchEnd, ran)
			m.mu.Unlock()
			return
		}
		now := time.Now()
		if i == 0 {
			// Queue wait: the stamp enqueue took before the scheduler
			// lock, claimed exactly once per pop. Both reads ride
			// timestamps the path already takes (D13) — no clock call
			// or lock was added for this.
			if enq := m.enqueuedNS.Swap(0); enq != 0 {
				if wait := now.UnixNano() - enq; wait > 0 {
					s.obs.QueueWait.Observe(wait)
					if m.trace != nil {
						m.trace.AppendAt(trace.KindQueueWait,
							now.Sub(m.created)-time.Duration(wait), time.Duration(wait), 0)
					}
				}
			}
		}
		if gap := m.noteStep(now); gap > 0 {
			s.obs.StepGap.ObserveExemplar(int64(gap), m.id)
		}
		start := now.Sub(m.created)
		if ran == 0 {
			batchStart = start
		}
		batchEnd = start // a step that panics recorded no duration
		ran++
		frontier, failure, stack := s.stepSession(m)
		if failure != nil {
			s.failLocked(m, failure, stack, batchStart, batchEnd, ran)
			return
		}
		batchEnd = start + m.sess.LastDuration()
		m.steps++
		s.obs.steps.Inc()
		if m.firstFrontier == 0 && len(frontier) > 0 {
			m.firstFrontier = time.Since(m.created)
			s.obs.FirstFrontier.ObserveExemplar(int64(m.firstFrontier), m.id)
			if m.trace != nil {
				m.trace.AppendAt(trace.KindFirstFrontier, m.firstFrontier, m.firstFrontier, 0)
			}
		}
		if m.trace != nil && len(frontier) > 0 {
			// Convergence-curve sample: the regime's resolution, frontier
			// size and best scalarization, packed into one 32-byte span.
			// Only non-empty frontiers sample, so the scalarization is
			// always finite. Rides the step's existing clock reads and the
			// lock already held — no allocation (D13, pinned by
			// TestObserveStepPathAllocFree).
			m.trace.AppendAt(trace.KindCurve, start,
				trace.PackCurveScalar(bestScalar(frontier)),
				trace.PackCurveN(m.sess.Resolution(), len(frontier)))
		}
		if m.sess.AtMaxResolution() {
			m.setState(AtTarget)
			s.endBatch(m, batchStart, batchEnd, ran)
			if m.trace != nil {
				m.trace.AppendAt(trace.KindConverged, batchEnd, 0, int64(m.steps))
				// Convergence speed: how many curve samples it took to get
				// within the target-precision factor of the regime's final
				// scalarization. Once per regime, off the step path.
				if n := stepsToEpsilon(m.trace, s.cfg.Opt.TargetPrecision); n > 0 {
					s.obs.StepsToEpsilon.Observe(int64(n))
				}
			}
			if s.cache != nil && !m.snapshotted {
				// The export also makes this session the representative
				// of its isomorphism class, so later isomorphic queries
				// warm-start from it via remap.
				t0 := time.Now()
				snap := m.sess.Optimizer().Snapshot()
				// Stamp before sharing: the label is the epoch current
				// at the session's creation (its query's statistics),
				// not whatever the catalog moved to since.
				snap.SetStatsEpoch(m.statsEpoch)
				s.admit(m.key, snap, false)
				m.snapshotted = true
				if m.trace != nil {
					// Convergence is once per regime, so an extra clock
					// pair here is off the hot path.
					m.trace.Append(trace.KindExport, t0, time.Since(t0), 0)
				}
			}
			m.mu.Unlock()
			return
		}
		// Decide the continuation while still holding m.mu (both checks
		// are lock-free) so a cut-short or exhausted batch seals its span
		// without re-acquiring the lock. A hot arrival preempts the
		// batch; a shutdown ends it, so Shutdown waits for one step, not
		// a whole quantum.
		preempt := i+1 < k && s.sched.hotPending()
		last := preempt || i+1 == k || s.stopping.Load()
		if last {
			s.endBatch(m, batchStart, batchEnd, ran)
		}
		m.mu.Unlock()
		if preempt {
			s.sched.preempts.Inc()
		}
		if last {
			break
		}
	}
	s.sched.enqueue(m, false)
}

// stepSession runs one refinement step under m.mu, converting a panic
// (from the optimizer or the injected FaultHook) into a captured
// error. The deferred recover is open-coded by the compiler — no
// allocation, no lock on the non-panic path (D13; pinned by
// TestObserveStepPathAllocFree) — and the stack capture only runs
// once a panic has already paid for itself.
func (s *Service) stepSession(m *managed) (frontier []*plan.Node, failure error, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Errorf("step panic: %v", r)
			stack = debug.Stack()
		}
	}()
	if h := s.cfg.FaultHook; h != nil {
		h(m.id, m.steps)
	}
	frontier = m.sess.Step()
	return
}

// failLocked transitions a session whose step panicked to Failed: the
// error and stack are captured for Poll and the trace archive, a
// poisoned warm start is quarantined, and the session stays in the
// registry so the client can read the failure over the API (Close or
// the janitor reaps it later). The worker returns to the queue — one
// tenant's panic never takes the daemon, a worker, or a sibling session
// with it. Called with m.mu held; returns with it released.
func (s *Service) failLocked(m *managed, failure error, stack []byte, first, last time.Duration, ran int) {
	m.failErr = failure.Error()
	m.failStack = string(stack)
	m.setState(Failed)
	s.endBatch(m, first, last, ran)
	// A warm session whose very first step panics indicts the restored
	// snapshot, not the session's own refinement: quarantine the source
	// (under its own keys — a drift restore's source is another query's
	// entry). A re-cost session admitted that same state under its own keys at the create,
	// and the copy is no better than the original.
	poisoned := m.prov != provCold && m.steps == 0
	// Counted before the unlock publishes the state: a client that polls
	// Failed never reads a failure count that does not include it yet.
	// The quarantine takes cache and store locks, so it stays outside.
	s.obs.failed.Inc()
	m.mu.Unlock()
	if poisoned {
		s.quarantine(m.src, false)
		if m.prov == provRecost {
			s.quarantine(m.key, false)
		}
	}
	s.mgr.recordGap(s.observeEnd(m, trace.KindFailed))
}

// endBatch seals one scheduling quantum: the steps-per-pop histogram
// sample and the batch's KindSteps span, which runs from the first
// step's start to the last step's end. Callers hold m.mu; a no-step
// batch records nothing.
func (s *Service) endBatch(m *managed, first, end time.Duration, ran int) {
	if ran == 0 {
		return
	}
	s.obs.QuantumSteps.Observe(int64(ran))
	if m.trace != nil {
		m.trace.AppendAt(trace.KindSteps, first, end-first, int64(ran))
	}
}

// lookup fetches a live session or fails with a not-found error.
func (s *Service) lookup(id string) (*managed, error) {
	m, ok := s.mgr.get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoSession, id)
	}
	return m, nil
}

// finish removes a terminal session from the registry and
// archives its starvation sample and lifecycle trace. k is the terminal
// span kind (selected/closed). Callers must not hold m.mu.
func (s *Service) finish(m *managed, k trace.Kind) {
	gap := s.observeEnd(m, k)
	s.mgr.remove(m.id)
	s.mgr.recordGap(gap)
}

// statusLocked builds a Status snapshot; callers hold m.mu.
func (m *managed) statusLocked() Status {
	return Status{
		ID:            m.id,
		Query:         m.sess.Optimizer().Query().Name(),
		State:         m.state,
		WarmStarted:   m.prov != provCold,
		Drift:         m.drift.String(),
		Provenance:    m.provLabel,
		Resolution:    m.sess.Resolution(),
		Steps:         m.steps,
		Bounds:        m.sess.Bounds(),
		Frontier:      m.sess.Frontier(),
		Rendered:      m.sess.Optimizer().RenderTable(),
		FirstFrontier: m.firstFrontier,
		MaxStepGap:    m.maxStepGap,
		Err:           m.failErr,
	}
}

// Poll returns the session's current status and frontier snapshot.
func (s *Service) Poll(id string) (Status, error) {
	m, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.touch()
	return m.statusLocked(), nil
}

// ErrWaitTimeout reports that WaitTargetTimeout's deadline passed
// before the session left the Refining state.
var ErrWaitTimeout = errors.New("service: wait target timeout")

// WaitTarget blocks until the session leaves the Refining state — it
// reached the target precision (AtTarget) or was selected, closed or
// expired concurrently — and returns the status at that moment. It is
// the step-completion signal clients (and benchmarks) should use
// instead of polling: the scheduler broadcasts every state transition,
// so no cycles are burned re-reading an unchanged frontier. A blocked
// waiter counts as ongoing client interaction, so the janitor never
// idle-expires a waited-on session. If the service shuts down while
// waiting, WaitTarget returns the last status with ErrShutdown.
func (s *Service) WaitTarget(id string) (Status, error) {
	return s.WaitTargetTimeout(id, 0)
}

// WaitTargetTimeout is WaitTarget with a hang guard: if d is positive
// and elapses first, the last status is returned with ErrWaitTimeout
// (the waiter leaves, so idle expiry resumes for the session). d <= 0
// means no deadline.
func (s *Service) WaitTargetTimeout(id string, d time.Duration) (Status, error) {
	m, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
		// cond.Wait cannot time out; a timer broadcast bounds it.
		timer := time.AfterFunc(d, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.touch()
	m.waiters++
	for m.state == Refining && !s.stopping.Load() &&
		(deadline.IsZero() || time.Now().Before(deadline)) {
		m.cond.Wait()
	}
	m.waiters--
	m.touch()
	switch {
	case m.state != Refining:
		return m.statusLocked(), nil
	case s.stopping.Load():
		return m.statusLocked(), ErrShutdown
	default:
		return m.statusLocked(), ErrWaitTimeout
	}
}

// SetBounds changes a live session's cost bounds. Per the paper's
// regime rule the next step restarts at resolution 0, so the session is
// (re)scheduled at hot priority.
func (s *Service) SetBounds(id string, b cost.Vector) error {
	m, err := s.lookup(id)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if !m.state.Live() {
		m.mu.Unlock()
		return fmt.Errorf("service: session %q is %v", id, m.state)
	}
	if err := m.sess.SetBounds(b); err != nil {
		m.mu.Unlock()
		return err
	}
	m.setState(Refining)
	m.snapshotted = false // new regime: next convergence re-exports
	// The session sat converged (cost-free, not runnable) until this
	// bounds change; that client idle time is not scheduler starvation,
	// so the inter-step gap clock restarts with the new regime.
	m.lastStep = time.Time{}
	m.touch()
	if m.trace != nil {
		// touch just read the clock; reuse it for the span.
		m.trace.Append(trace.KindBounds, m.lastTouch, 0, 0)
	}
	m.mu.Unlock()
	s.sched.enqueue(m, true)
	return nil
}

// Select picks a plan from the session's current frontier by index,
// finishing the session (it leaves the registry). The index addresses
// the frontier the last step published, which is what a poll at the
// same step count showed; a later step may publish a different one, so
// expectSteps carries the Steps value from the poll the index refers
// to: a mismatch means the frontier moved underneath the client and
// Select fails with ErrFrontierMoved instead of silently returning a
// plan the user never saw. Pass a negative expectSteps to skip the
// check (safe once the session is AtTarget, whose frontier is frozen).
func (s *Service) Select(id string, index, expectSteps int) (*plan.Node, error) {
	m, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if !m.state.Live() {
		m.mu.Unlock()
		return nil, fmt.Errorf("service: session %q is %v", id, m.state)
	}
	if expectSteps >= 0 && expectSteps != m.steps {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: session %q refined from step %d to %d since the poll",
			ErrFrontierMoved, id, expectSteps, m.steps)
	}
	frontier := m.sess.Frontier()
	if len(frontier) == 0 {
		// Not the request's fault: no step has published since the last
		// bounds change, or the bounds admit no plan (yet).
		m.mu.Unlock()
		return nil, fmt.Errorf("service: session %q has no frontier to select from; poll again", id)
	}
	p, _, err := m.sess.Apply(session.Event{Action: session.Select, PlanIndex: index}, frontier)
	if err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrPlanIndex, err)
	}
	m.setState(Selected)
	m.mu.Unlock()
	s.finish(m, trace.KindSelected)
	s.obs.selected.Inc()
	// The session is finished: hand back a copy detached from the
	// optimizer's arena, so a client keeping the plan does not pin the
	// dead session's node chunks (see plan.DetachInto).
	return plan.DetachInto(map[*plan.Node]*plan.Node{}, p, 0), nil
}

// Close drops a live session without selecting a plan. Closing a
// Failed session acknowledges its error and frees the registry slot
// (its terminal observability was recorded at the failure).
func (s *Service) Close(id string) error {
	m, err := s.lookup(id)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.state == Failed {
		m.mu.Unlock()
		s.mgr.remove(m.id)
		s.obs.closed.Inc()
		return nil
	}
	if !m.state.Live() {
		m.mu.Unlock()
		return fmt.Errorf("service: session %q is %v", id, m.state)
	}
	m.setState(Closed)
	m.mu.Unlock()
	s.finish(m, trace.KindClosed)
	s.obs.closed.Inc()
	return nil
}

// Stats returns the service counters and gauges, including the
// starvation-audit percentile. Every counter is read from the registry
// word /metrics renders.
func (s *Service) Stats() Stats {
	o := s.obs
	st := Stats{
		Created:           o.created.Value(),
		Selected:          o.selected.Value(),
		Closed:            o.closed.Value(),
		Expired:           o.expired.Value(),
		Failed:            o.failed.Value(),
		TimedOut:          o.timedOut.Value(),
		Poisoned:          o.poisoned.Value(),
		Rejected:          o.rejected.Value(),
		Steps:             o.steps.Value(),
		Pops:              s.sched.pops.Value(),
		Preempts:          s.sched.preempts.Value(),
		WarmStarts:        o.warmStarts.Value(),
		IsoWarmStarts:     o.isoWarmStarts.Value(),
		DriftRecosted:     o.drift[driftRecosted].Value(),
		DriftResumed:      o.drift[driftResumed].Value(),
		DriftQuarantined:  o.drift[driftQuarantined].Value(),
		StatsEpoch:        s.statsEpoch(),
		RemapTotal:        time.Duration(o.Remap.Sum()),
		Active:            s.mgr.count(),
		Queued:            s.sched.queueLen(),
		Draining:          s.draining.Load(),
		DrainConverged:    o.drainConverged.Value(),
		DrainCheckpointed: o.drainCheckpointed.Value(),
	}
	st.Shards = []ShardStats{{Steps: st.Steps, Pops: st.Pops, Preempts: st.Preempts}}
	// statsMu serializes concurrent Stats callers over the reusable gap
	// scratch (this slice and the manager's liveScratch); the sort and
	// percentile below run with no registry lock held.
	s.statsMu.Lock()
	gaps := s.mgr.appendGaps(s.gapScratch[:0])
	st.StepGapP99 = percentileDur(gaps, 0.99)
	s.gapScratch = gaps
	s.statsMu.Unlock()
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	if s.store != nil {
		st.Store = s.store.Stats()
		st.StoreReadsBoot = o.StoreReadsBoot.Value()
		st.StoreReadsHit = o.StoreReadsHit.Value()
		st.StoreReadErrors = o.StoreReadErrors.Value()
	}
	return st
}

// percentileDur is the nearest-rank p-quantile of ds (p in [0,1]): the
// ⌈p·n⌉-th smallest sample, clamped to the first and last; 0 for an
// empty slice. It sorts ds in place.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}
