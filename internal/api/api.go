// Package api is the transport-agnostic operations layer between the
// optimization service and whatever carries requests to it — moqod's
// HTTP mux today, peer transports and tests tomorrow. It owns what the
// service deliberately does not: the node lifecycle. A node moves
// through four monotonic phases — Bootstrapping (the HTTP surface is
// up for health probes while the store is, optionally, pulled from a
// peer), Ready (sessions are served), Draining (new sessions are
// refused, in-flight ones converge or checkpoint), Drained (workers
// stopped, store flushed; polls and store exports still answer). The
// phase never moves backwards, so a load balancer watching /readyz can
// trust a false to stay false (DESIGN.md D16: readiness never lies).
package api

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/workload"
)

// Phase is a node's lifecycle phase. Phases only ever advance.
type Phase int32

const (
	// Bootstrapping: the node is preparing its warm state (possibly
	// pulling a peer's store); the service is not up yet.
	Bootstrapping Phase = iota
	// Ready: the service is up and admitting sessions.
	Ready
	// Draining: new sessions are refused; in-flight ones converge or
	// checkpoint.
	Draining
	// Drained: workers are stopped and the store is flushed; reads
	// (polls, /statz, store exports) still answer.
	Drained
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Bootstrapping:
		return "bootstrapping"
	case Ready:
		return "ready"
	case Draining:
		return "draining"
	case Drained:
		return "drained"
	default:
		return "unknown"
	}
}

// BootstrapStatus records how the node's warm state came to be; it is
// immutable after Ready and surfaced in /statz and /metrics.
type BootstrapStatus struct {
	// Mode is "none" (no peer configured), "warm" (peer pull succeeded),
	// "cold-fallback" (peer pull failed; started cold), or "local" (the
	// store directory already had local segments, peer skipped).
	Mode string
	// Peer is the donor address (empty for "none").
	Peer string
	// Error is the pull failure behind a cold-fallback.
	Error string
	// Segments, Frames and Bytes count verified transferred state.
	Segments, Frames int
	Bytes            int64
	// Attempts, Resumed and Restarts count fetches, resumed fetches and
	// full manifest restarts.
	Attempts, Resumed, Restarts int
}

// Config configures an API front end.
type Config struct {
	// SF is the TPC-H scale factor behind block queries.
	SF float64
	// Seed derives per-request synthetic-query seeds.
	Seed int64
	// Dim is the cost-space dimension (bounds validation).
	Dim int
	// Pprof exposes /debug/pprof/ on the mux.
	Pprof bool
	// DrainGrace bounds how long Drain waits for in-flight sessions to
	// converge before checkpointing them; defaults to 30s.
	DrainGrace time.Duration
	// Stats is the versioned statistics catalog (required for the
	// /catalog/stats surface; may be nil in bare tests).
	Stats *catalog.Versioned
	// Events is the node's structured event ring: phase transitions are
	// recorded here (subsystem "api") and GET /debug/events serves it.
	// Nil disables both (every emission is nil-safe, the endpoint 404s).
	Events *eventlog.Log
}

// API is one node's operations surface. Construct with New (phase
// Bootstrapping), install the service with Ready, and retire it with
// Drain. All methods are safe for concurrent use.
type API struct {
	cfg   Config
	phase atomic.Int32

	mu     sync.Mutex
	svc    *service.Service
	blocks []workload.Block // rebuilt on each statistics epoch, under mu
	seed   int64            // per-request synthetic-query seeds derive from this
	boot   BootstrapStatus

	// pollBytes is the poll-body size distribution (bytes per poll).
	pollBytes *metrics.Histogram

	drainOnce sync.Once
	drained   chan struct{}
}

// New builds the API in the Bootstrapping phase: health endpoints
// answer, everything else replies 503-bootstrapping until Ready.
func New(cfg Config) *API {
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 30 * time.Second
	}
	return &API{
		cfg:       cfg,
		seed:      cfg.Seed,
		boot:      BootstrapStatus{Mode: "none"},
		drained:   make(chan struct{}),
		pollBytes: metrics.NewValues(1<<8, 1<<10, 1<<12, 1<<14, 1<<16, 1<<18, 1<<20),
	}
}

// SetBootstrap records how the node's warm state was obtained; call
// before Ready so the status is complete when readiness flips.
func (a *API) SetBootstrap(b BootstrapStatus) {
	a.mu.Lock()
	a.boot = b
	a.mu.Unlock()
}

// Ready installs the running service and its workload blocks, registers
// the lifecycle metrics on the service's registry, and advances the
// phase to Ready.
func (a *API) Ready(svc *service.Service, blocks []workload.Block) {
	a.mu.Lock()
	a.svc = svc
	a.blocks = blocks
	a.mu.Unlock()
	a.registerMetrics(svc)
	a.advance(Ready)
}

// Phase returns the current lifecycle phase.
func (a *API) Phase() Phase { return Phase(a.phase.Load()) }

// advance moves the phase forward monotonically (never backwards).
func (a *API) advance(p Phase) {
	for {
		cur := a.phase.Load()
		if cur >= int32(p) {
			return
		}
		if a.phase.CompareAndSwap(cur, int32(p)) {
			a.cfg.Events.Emit(eventlog.LevelInfo, "api", "phase advanced",
				eventlog.F("from", Phase(cur).String()),
				eventlog.F("to", p.String()))
			return
		}
	}
}

// service returns the installed service (nil while bootstrapping).
func (a *API) service() *service.Service {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.svc
}

// Bootstrap returns the recorded bootstrap status.
func (a *API) Bootstrap() BootstrapStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.boot
}

// Drain retires the node: phase flips to Draining (readiness goes
// false, creates start refusing), in-flight sessions get DrainGrace to
// converge before being checkpointed to the store, then the workers
// stop and the store flushes (service.Drain + Shutdown). Idempotent:
// the first caller runs it, later callers block until it completes.
// Polls, /statz, /metrics and store exports keep answering afterwards
// — a drained donor can still seed a joining peer.
func (a *API) Drain() {
	a.drainOnce.Do(func() {
		a.advance(Draining)
		if svc := a.service(); svc != nil {
			svc.Drain(a.cfg.DrainGrace)
			svc.Shutdown()
		}
		a.advance(Drained)
		close(a.drained)
	})
	<-a.drained
}

// ReadyToServe reports whether the node should receive traffic: phase
// Ready and the store (if any) not degraded. Reason names the first
// failing condition. The store's state is one atomic read, so a
// readiness probe never waits for the store's writer.
func (a *API) ReadyToServe() (ok bool, reason string) {
	if p := a.Phase(); p != Ready {
		return false, p.String()
	}
	svc := a.service()
	if svc == nil {
		return false, "bootstrapping"
	}
	if st := svc.Store(); st != nil && st.Degraded() {
		return false, "store-degraded"
	}
	return true, ""
}

// ApplyStats installs a statistics update as a new epoch and rebuilds
// the TPC-H blocks against the new catalog, so every session created
// after the swap is costed under the new statistics (and drifts
// against cached plan state costed under the old ones).
func (a *API) ApplyStats(u catalog.StatsUpdate) (*catalog.Epoch, error) {
	if a.cfg.Stats == nil {
		return nil, fmt.Errorf("api: no statistics catalog configured")
	}
	ep, err := a.cfg.Stats.Apply(u)
	if err != nil {
		return nil, err
	}
	blocks, err := workload.BlocksFor(ep.Catalog, a.cfg.SF, ep.EdgeSel)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.blocks = blocks
	a.mu.Unlock()
	return ep, nil
}

// Lifecycle is the node-level slice of /statz: the phase, the drain
// outcome, and how the warm state was obtained.
type Lifecycle struct {
	Phase     string
	Bootstrap BootstrapStatus
}

// Lifecycle returns the current lifecycle view.
func (a *API) Lifecycle() Lifecycle {
	return Lifecycle{Phase: a.Phase().String(), Bootstrap: a.Bootstrap()}
}

// resolveQuery resolves a create request into a query: a TPC-H block by
// name, or a synthetic query of the requested size and topology.
func (a *API) resolveQuery(req createRequest) (*query.Query, error) {
	if req.Tables > 0 {
		tp, err := parseTopology(req.Topology)
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		seed := a.seed
		if req.Seed != nil {
			seed = *req.Seed
		} else {
			a.seed++ // distinct synthetic queries per request, still reproducible
		}
		a.mu.Unlock()
		return syntheticQuery(req.Tables, tp, seed)
	}
	name := req.Block
	if name == "" {
		name = "Q5"
	}
	// blocks is swapped wholesale on a statistics update; the lock makes
	// the read atomic with the swap (queries are immutable once built).
	a.mu.Lock()
	blk, ok := workload.Find(a.blocks, name)
	a.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown TPC-H block %q", name)
	}
	return blk.Query, nil
}

// registerMetrics wires the lifecycle gauges and bootstrap counters
// into the service's registry, next to the service's own families.
func (a *API) registerMetrics(svc *service.Service) {
	r := svc.Registry()
	r.Histogram("moqod_poll_body_bytes", "Size of the poll response bodies written.", "", a.pollBytes)
	for _, p := range []Phase{Bootstrapping, Ready, Draining, Drained} {
		p := p
		r.GaugeFunc("moqod_lifecycle_phase", "1 for the node's current lifecycle phase.",
			fmt.Sprintf(`phase="%s"`, p), func() float64 {
				if a.Phase() == p {
					return 1
				}
				return 0
			})
	}
	// The bootstrap status is final before Ready (SetBootstrap's
	// contract), so the samples read one copy of it.
	boot := a.Bootstrap()
	for _, m := range []string{"none", "warm", "cold-fallback", "local"} {
		m := m
		r.GaugeFunc("moqod_bootstrap_mode", "1 for how this node obtained its warm state.",
			fmt.Sprintf(`mode="%s"`, m), func() float64 {
				if boot.Mode == m {
					return 1
				}
				return 0
			})
	}
	r.CounterFunc("moqod_bootstrap_segments_total", "Segments pulled from the bootstrap peer.", "", func() uint64 {
		return uint64(boot.Segments)
	})
	r.CounterFunc("moqod_bootstrap_frames_total", "Frames verified during peer bootstrap.", "", func() uint64 {
		return uint64(boot.Frames)
	})
	r.CounterFunc("moqod_bootstrap_bytes_total", "Bytes verified and installed during peer bootstrap.", "", func() uint64 {
		return uint64(boot.Bytes)
	})
	r.CounterFunc("moqod_bootstrap_attempts_total", "Segment fetch attempts during peer bootstrap.", "", func() uint64 {
		return uint64(boot.Attempts)
	})
	r.CounterFunc("moqod_bootstrap_resumed_total", "Segment fetches resumed from a verified offset.", "", func() uint64 {
		return uint64(boot.Resumed)
	})
}
