// Command moqod serves concurrent anytime multi-objective optimization
// sessions over HTTP/JSON — the multi-tenant daemon counterpart of the
// interactive moqo CLI. Each client session owns an incremental
// optimizer whose refinement steps one fair-share worker pool
// time-slices across all tenants (hot sessions first, bounded quanta;
// see -workers and -quantum); repeated query shapes warm-start from a
// plan-set cache.
// Admission control (-max-sessions, -max-queue) sheds load with
// HTTP 429 + Retry-After instead of queueing without bound. With
// -cache-dir the warm-start cache is backed by a persistent snapshot
// store: restarts (and other moqod processes pointed at a copy of the
// directory) replay the persisted plan state instead of paying the
// cold-start cliff. A new node can also bootstrap that store from a
// live (or drained) peer with -bootstrap-peer, arriving warm without
// sharing a filesystem. SIGINT/SIGTERM trigger a graceful drain: new
// sessions are refused with 503 + Retry-After, in-flight sessions
// converge or are checkpointed to the store, then HTTP and the store
// shut down — zero sessions are abandoned.
//
//	moqod -addr :8080                     # serve the JSON API
//	moqod -addr :8080 -cache-dir /var/moqod  # …with warm starts surviving restarts
//	moqod -addr :8081 -cache-dir /var/moqod2 -bootstrap-peer 127.0.0.1:8080
//	                                      # …warm state pulled from a peer
//
// API sketch (all JSON):
//
//	POST   /sessions                {"block":"Q5"} or {"tables":6,"topology":"star"}
//	                                → 429 + Retry-After when overloaded,
//	                                → 503 + Retry-After when draining or
//	                                  bootstrapping
//	GET    /sessions/{id}           → state, resolution, frontier
//	POST   /sessions/{id}/bounds    {"bounds":[2000,4,1]} (null/empty = unbounded)
//	POST   /sessions/{id}/select    {"index":0,"steps":12} → chosen plan
//	                                ("steps" from the poll guards against
//	                                 a concurrently refined frontier)
//	DELETE /sessions/{id}
//	POST   /catalog/stats           {"tables":[{"name":"orders","rows":2e6}],
//	                                 "edges":[{"a":"orders","b":"lineitem",
//	                                 "selectivity":1e-6}]} — install a new
//	                                statistics epoch; cached plan state from
//	                                older epochs is drift-classified and
//	                                re-costed, resumed or quarantined
//	                                (-stats-file loads the same JSON at boot,
//	                                 SIGHUP re-reads it)
//	GET    /statz                   → service counters, incl. scheduler
//	                                  pops/preempts, drain progress and
//	                                  the lifecycle phase
//	GET    /metrics                 → Prometheus text exposition (lifecycle
//	                                  counters, latency histograms,
//	                                  queue gauges)
//	GET    /healthz                 → liveness (200 in every phase)
//	GET    /readyz                  → readiness (503 while bootstrapping,
//	                                  draining or store-degraded)
//	POST   /admin/drain             → start a graceful drain (idempotent)
//	GET    /admin/store/manifest    → snapshot-store export view for peers
//	GET    /admin/store/segments/{seq}?gen=G&off=N → raw segment bytes
//	GET    /debug/sessions/{id}/trace → the session's lifecycle trace
//	                                  (live sessions and the recent-
//	                                  traces archive)
//	GET    /debug/traces            → recently finished sessions' traces
//	                                  (?n= caps the count)
//	GET    /debug/pprof/...         → runtime profiles (only with -pprof)
//
// -slow-session logs the full lifecycle trace of any session whose
// end-to-end time reaches the threshold, e.g. -slow-session 100ms.
//
// All randomness is seeded by -seed (default 1) so runs reproduce.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/bootstrap"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/eventlog"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "refinement worker-pool size (0 = GOMAXPROCS)")
	quantum := flag.Int("quantum", 4, "max consecutive cold steps per scheduler pop (1 = strict round-robin)")
	maxSessions := flag.Int("max-sessions", 0, "admission limit on live sessions (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "admission limit on queued sessions (0 = unlimited)")
	levels := flag.Int("levels", 5, "resolution levels per session")
	alphaT := flag.Float64("target", 1.01, "target precision αT")
	alphaS := flag.Float64("step", 0.05, "precision step αS")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "expire sessions idle this long")
	deadline := flag.Duration("session-deadline", 0, "hard wall-clock lifetime per session; older sessions time out (0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard; 0 disables)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout (0 disables)")
	cacheCap := flag.Int("cache", 256, "warm-start cache capacity (-1 disables)")
	cacheDir := flag.String("cache-dir", "", "persist warm-start snapshots under this directory (survives restarts; empty disables)")
	bootstrapPeer := flag.String("bootstrap-peer", "", "pull the snapshot store from this peer's /admin/store export before serving (requires -cache-dir; falls back to cold start on failure)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "drain: how long in-flight sessions get to converge before being checkpointed")
	seed := flag.Int64("seed", 1, "seed for synthetic queries")
	sf := flag.Float64("sf", 1, "TPC-H scale factor for -block queries")
	statsFile := flag.String("stats-file", "", "apply a catalog statistics update (JSON StatsUpdate) at boot; SIGHUP re-reads it")
	driftThreshold := flag.Float64("drift-threshold", 0, "relative stats change separating small (re-cost in place) from large (resume refinement) drift (0 = default 0.5)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	slowSession := flag.Duration("slow-session", 0, "log the lifecycle trace of sessions slower than this end to end (0 disables)")
	flag.Parse()

	if *bootstrapPeer != "" && *cacheDir == "" {
		fail(fmt.Errorf("-bootstrap-peer requires -cache-dir (nowhere to install the pulled store)"))
	}

	// The structured event log replaces ad-hoc log.Printf across the
	// daemon: every subsystem emits leveled, rate-limited events into one
	// bounded ring served at GET /debug/events, with a plain-text mirror
	// on stderr so the operator view stays what it always was.
	node, _ := os.Hostname()
	if node == "" {
		node = "moqod"
	}
	events := eventlog.New(eventlog.Options{Node: node, Mirror: os.Stderr})

	// The versioned statistics epoch the TPC-H blocks are built from.
	// -stats-file seeds a drifted epoch before anything is costed; later
	// epochs arrive via POST /catalog/stats or SIGHUP.
	stats := catalog.NewVersioned(workload.Catalog(*sf))
	if *statsFile != "" {
		u, err := loadStatsUpdate(*statsFile)
		if err != nil {
			fail(err)
		}
		if _, err := stats.Apply(u); err != nil {
			fail(err)
		}
	}
	cfg := service.Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: *levels,
			TargetPrecision:  *alphaT,
			PrecisionStep:    *alphaS,
		},
		Workers:           *workers,
		Quantum:           *quantum,
		MaxActiveSessions: *maxSessions,
		MaxQueueDepth:     *maxQueue,
		IdleTimeout:       *idle,
		SessionDeadline:   *deadline,
		CacheCapacity:     *cacheCap,
		StoreDir:          *cacheDir,
		Stats:             stats,
		DriftThreshold:    *driftThreshold,
		Events:            events,
	}
	if *slowSession > 0 {
		threshold := *slowSession
		cfg.SlowSession = threshold
		cfg.SlowSessionLog = func(total time.Duration, d trace.Data) {
			events.EmitSession(eventlog.LevelWarn, "service", "slow session",
				d.ID, "", "", eventlog.Fdur("total", total), eventlog.Fdur("threshold", threshold),
				eventlog.F("provenance", d.Provenance), eventlog.F("trace", d.Format()))
		}
	}

	// The HTTP surface comes up first, in the Bootstrapping phase, so
	// /healthz answers (and /readyz says "not yet") while the node pulls
	// peer state and builds the service.
	a := api.New(api.Config{
		SF:         *sf,
		Seed:       *seed,
		Dim:        cfg.Opt.Model.Space().Dim(),
		Pprof:      *pprofOn,
		DrainGrace: *drainGrace,
		Stats:      stats,
		Events:     events,
	})
	// The explicit timeouts close the slowloris hole a bare http.Server
	// leaves open: a client trickling header bytes (or never reading its
	// response) would otherwise pin a connection goroutine forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           a.Mux(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	// Optional peer bootstrap: pull the donor's verified segment bytes
	// into -cache-dir before the store opens, so the normal startup
	// replay indexes them like any local restart. Every failure mode —
	// unreachable peer, dead mid-stream, corrupt frames, config mismatch
	// — degrades to a cold start, never to partial state.
	boot := api.BootstrapStatus{Mode: "none"}
	if *bootstrapPeer != "" {
		boot.Mode = "cold-fallback"
		boot.Peer = *bootstrapPeer
		echo, err := core.ConfigFingerprint(cfg.Opt)
		if err != nil {
			fail(err)
		}
		// Events feeds both sinks: the log mirrors every admitted event
		// to stderr and retains it in the /debug/events ring.
		res, err := bootstrap.Pull(bootstrap.Options{
			Peer:    *bootstrapPeer,
			Dir:     *cacheDir,
			CfgEcho: echo,
			Events:  events,
		})
		boot.Segments, boot.Frames, boot.Bytes = res.Segments, res.Frames, res.Bytes
		boot.Attempts, boot.Resumed, boot.Restarts = res.Attempts, res.Resumed, res.Restarts
		switch {
		case err == nil:
			boot.Mode = "warm"
			// Entries replayed from the pulled store carry peer-inherited
			// plan state; sessions warm-starting from them report it
			// (provenance "exact-bootstrap" etc.).
			cfg.Bootstrapped = true
			events.Emit(eventlog.LevelInfo, "bootstrap", "installed peer state",
				eventlog.F("peer", *bootstrapPeer),
				eventlog.Fint("segments", int64(res.Segments)),
				eventlog.Fint("frames", int64(res.Frames)),
				eventlog.Fint("bytes", res.Bytes))
		case errors.Is(err, bootstrap.ErrLocalState):
			boot.Mode = "local"
			events.Emit(eventlog.LevelInfo, "bootstrap", "skipped: local state present",
				eventlog.F("peer", *bootstrapPeer), eventlog.Ferr(err))
		default:
			boot.Error = err.Error()
			events.Emit(eventlog.LevelWarn, "bootstrap", "pull failed, starting cold",
				eventlog.F("peer", *bootstrapPeer), eventlog.Ferr(err))
		}
	}
	a.SetBootstrap(boot)

	svc, err := service.New(cfg)
	if err != nil {
		fail(err)
	}
	defer svc.Shutdown()
	ep := stats.Current()
	blocks, err := workload.BlocksFor(ep.Catalog, *sf, ep.EdgeSel)
	if err != nil {
		fail(err)
	}
	// The shutdown signals are caught before the node answers /readyz
	// 200: from the moment a balancer may route here, a SIGTERM drains
	// instead of killing the process. The channel buffers the signal
	// until the select below is reached.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	a.Ready(svc, blocks)

	events.Emit(eventlog.LevelInfo, "moqod", "serving",
		eventlog.F("addr", *addr),
		eventlog.Fint("workers", int64(cfg.Workers)),
		eventlog.Fint("quantum", int64(cfg.Quantum)),
		eventlog.Fint("levels", int64(*levels)),
		eventlog.F("target", fmt.Sprintf("%g", *alphaT)),
		eventlog.F("step", fmt.Sprintf("%g", *alphaS)),
		eventlog.Fint("cache", int64(cfg.CacheCapacity)),
		eventlog.F("cache_dir", *cacheDir),
		eventlog.Fint("max_sessions", int64(cfg.MaxActiveSessions)),
		eventlog.Fint("max_queue", int64(cfg.MaxQueueDepth)))

	// SIGHUP re-reads -stats-file and installs it as a new statistics
	// epoch — the operational path for drift when the daemon is driven by
	// an external stats collector writing a file. Separate channel from
	// the shutdown signals: a reload must never race a drain.
	hupCh := make(chan os.Signal, 1)
	signal.Notify(hupCh, syscall.SIGHUP)
	go func() {
		for range hupCh {
			if *statsFile == "" {
				events.Emit(eventlog.LevelWarn, "moqod", "SIGHUP ignored (no -stats-file to reload)")
				continue
			}
			u, err := loadStatsUpdate(*statsFile)
			if err != nil {
				events.Emit(eventlog.LevelError, "moqod", "SIGHUP stats reload failed", eventlog.Ferr(err))
				continue
			}
			ep, err := a.ApplyStats(u)
			if err != nil {
				events.Emit(eventlog.LevelError, "moqod", "SIGHUP stats reload failed", eventlog.Ferr(err))
				continue
			}
			events.Emit(eventlog.LevelInfo, "moqod", "stats reloaded",
				eventlog.F("file", *statsFile), eventlog.Fint("epoch", int64(ep.Version)))
		}
	}()

	// Serve until SIGINT/SIGTERM, then drain in two phases, in this
	// order: first the service-level drain — new sessions get 503 while
	// HTTP still answers, in-flight sessions converge or checkpoint, the
	// workers stop and the store flushes — and only then the HTTP drain.
	// Shutting HTTP down first would leave a window where an admitted
	// session races the store flush; this order guarantees no session
	// exists that the drain has not accounted for.
	select {
	case err := <-errCh:
		fail(err)
	case sig := <-sigCh:
		events.Emit(eventlog.LevelInfo, "moqod", "signal: draining sessions, then HTTP",
			eventlog.F("signal", sig.String()))
		a.Drain()
		dst := svc.Stats()
		events.Emit(eventlog.LevelInfo, "moqod", "drained",
			eventlog.Fint("converged", int64(dst.DrainConverged)),
			eventlog.Fint("checkpointed", int64(dst.DrainCheckpointed)),
			eventlog.Fint("events_dropped", int64(events.DroppedTotal())))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			events.Emit(eventlog.LevelError, "moqod", "http shutdown failed", eventlog.Ferr(err))
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "moqod: %v\n", err)
	os.Exit(1)
}

// loadStatsUpdate reads a catalog.StatsUpdate from a JSON file (the
// -stats-file format, identical to the POST /catalog/stats body).
func loadStatsUpdate(path string) (catalog.StatsUpdate, error) {
	var u catalog.StatsUpdate
	data, err := os.ReadFile(path)
	if err != nil {
		return u, fmt.Errorf("stats file: %w", err)
	}
	if err := json.Unmarshal(data, &u); err != nil {
		return u, fmt.Errorf("stats file %s: %w", path, err)
	}
	return u, nil
}
