// Command moqod serves concurrent anytime multi-objective optimization
// sessions over HTTP/JSON — the multi-tenant daemon counterpart of the
// interactive moqo CLI. Each client session owns an incremental
// optimizer whose refinement steps sharded fair-share worker pools
// time-slice across all tenants (sessions hash onto per-core
// manager/scheduler shards with work stealing; see -shards and
// -quantum); repeated query shapes warm-start from a plan-set cache.
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
//	moqod -loadgen -sessions 64           # drive 64 concurrent sessions in-process
//	moqod -loadgen -target-addr 127.0.0.1:8080 -failover-addr 127.0.0.1:8081
//	                                      # drive over HTTP with drain-aware failover
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
//	GET    /statz                   → service counters, incl. per-shard
//	                                  queue/steal/preempt breakdown, drain
//	                                  progress and the lifecycle phase
//	GET    /metrics                 → Prometheus text exposition (lifecycle
//	                                  counters, latency histograms,
//	                                  per-shard queue gauges)
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
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/bootstrap"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/eventlog"
	"repro/internal/harness"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 0, "refinement worker-pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "manager/scheduler shards (0 = GOMAXPROCS, 1 = single queue)")
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
	seed := flag.Int64("seed", 1, "seed for synthetic queries and the load-generator mix")
	sf := flag.Float64("sf", 1, "TPC-H scale factor for -block queries")
	statsFile := flag.String("stats-file", "", "apply a catalog statistics update (JSON StatsUpdate) at boot; SIGHUP re-reads it")
	driftThreshold := flag.Float64("drift-threshold", 0, "relative stats change separating small (re-cost in place) from large (resume refinement) drift (0 = default 0.5)")
	loadgen := flag.Bool("loadgen", false, "run the load generator instead of serving (in-process, or over HTTP with -target-addr)")
	targetAddr := flag.String("target-addr", "", "loadgen: drive this moqod node over HTTP instead of in-process")
	failoverAddr := flag.String("failover-addr", "", "loadgen: second node to retry against when the target drains or dies")
	sessions := flag.Int("sessions", 64, "loadgen: concurrent sessions to drive")
	total := flag.Int("requests", 0, "loadgen: total sessions to run (0 = 3× -sessions)")
	isomorph := flag.Float64("isomorph", 0, "loadgen: fraction of sessions running a table-ID-permuted (isomorphic) variant of their block")
	aliasCopies := flag.Int("alias-copies", 3, "loadgen: statistically identical copies per base table the -isomorph variants draw from")
	driftMode := flag.Bool("drift", false, "loadgen: mutate catalog statistics mid-run and report drift-recovery quality vs a cold control")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	slowSession := flag.Duration("slow-session", 0, "log the lifecycle trace of sessions slower than this end to end (0 disables)")
	flag.Parse()

	if *bootstrapPeer != "" && *cacheDir == "" {
		fail(fmt.Errorf("-bootstrap-peer requires -cache-dir (nowhere to install the pulled store)"))
	}

	// The structured event log replaces ad-hoc log.Printf across the
	// daemon: every subsystem emits leveled, rate-limited events into one
	// bounded ring served at GET /debug/events, with a plain-text mirror
	// on stderr so the operator view stays what it always was. The
	// loadgen modes skip the mirror (their report goes to stdout; the
	// drop counters are printed at the end instead).
	node, _ := os.Hostname()
	if node == "" {
		node = "moqod"
	}
	evOpts := eventlog.Options{Node: node, Mirror: os.Stderr}
	if *loadgen {
		evOpts.Mirror = nil
	}
	events := eventlog.New(evOpts)

	if *loadgen && *targetAddr != "" {
		// HTTP loadgen needs no local service at all — it exercises a
		// running node (or a draining/failing-over pair) from outside.
		n := *total
		if n <= 0 {
			n = 3 * *sessions
		}
		if err := runHTTPLoadgen(*targetAddr, *failoverAddr, *sessions, n, *sf, *seed); err != nil {
			fail(err)
		}
		return
	}

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
		Shards:            *shards,
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

	if *loadgen {
		svc, err := service.New(cfg)
		if err != nil {
			fail(err)
		}
		defer svc.Shutdown()
		n := *total
		if n <= 0 {
			n = 3 * *sessions
		}
		if *driftMode {
			if err := runDriftLoadgen(svc, stats, cfg.Opt, *sessions, *sf); err != nil {
				fail(err)
			}
			reportEventDrops(events)
			return
		}
		mixOpt := workload.MixOptions{IsomorphRate: *isomorph, AliasCopies: *aliasCopies}
		if err := runLoadgen(svc, *sessions, n, *sf, *seed, mixOpt); err != nil {
			fail(err)
		}
		reportEventDrops(events)
		return
	}

	// Serving mode: the HTTP surface comes up first, in the Bootstrapping
	// phase, so /healthz answers (and /readyz says "not yet") while the
	// node pulls peer state and builds the service.
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
			cfg.ReplaySource = "bootstrap"
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

	st := svc.Stats()
	events.Emit(eventlog.LevelInfo, "moqod", "serving",
		eventlog.F("addr", *addr),
		eventlog.Fint("workers", int64(cfg.Workers)),
		eventlog.Fint("shards", int64(len(st.Shards))),
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

// reportEventDrops summarizes rate-limited event loss at the end of a
// loadgen run (the serving mode exposes the same counters as metrics).
func reportEventDrops(ev *eventlog.Log) {
	if d := ev.DroppedTotal(); d > 0 {
		fmt.Printf("eventlog: %d events dropped by rate limiting (bounded ring kept the rest)\n", d)
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

// runLoadgen drives the service with concurrent simulated users and
// reports throughput and latency percentiles — the paper's interactive
// regime at service scale.
func runLoadgen(svc *service.Service, concurrency, total int, sf float64, seed int64, mixOpt workload.MixOptions) error {
	blocks := workload.MustTPCHBlocks(sf)
	profiles, err := workload.MixWith(blocks, total, mixOpt, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %d sessions, %d concurrent, seed %d, isomorph rate %g\n",
		total, concurrency, seed, mixOpt.IsomorphRate)

	work := make(chan workload.SessionProfile)
	var (
		mu        sync.Mutex
		firstLats []time.Duration
		totalLats []time.Duration
		failures  int
		retries   int
		sampleErr []error
	)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Per-worker RNG for the retry jitter: no sharing, and runs
			// stay reproducible under -seed.
			rng := rand.New(rand.NewSource(seed + int64(worker)))
			for p := range work {
				first, dur, tries, err := driveSession(svc, p, rng)
				mu.Lock()
				retries += tries
				if err != nil {
					failures++
					if len(sampleErr) < 3 {
						sampleErr = append(sampleErr, err)
					}
				} else {
					firstLats = append(firstLats, first)
					totalLats = append(totalLats, dur)
				}
				mu.Unlock()
			}
		}(c)
	}
	for _, p := range profiles {
		work <- p
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	if failures > 0 {
		return fmt.Errorf("loadgen: %d/%d sessions failed (e.g. %v)", failures, total, sampleErr)
	}
	st := svc.Stats()
	fmt.Printf("completed %d sessions in %v (%.1f sessions/sec, %d refinement steps)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), st.Steps)
	if retries > 0 || st.Rejected > 0 {
		// Recovered throughput, not error soup: overloaded creates were
		// retried with backoff and still completed above.
		fmt.Printf("admission: %d rejections absorbed by %d backoff retries\n", st.Rejected, retries)
	}
	fmt.Printf("first-frontier latency: p50=%v p95=%v p99=%v max=%v\n",
		harness.Percentile(firstLats, 0.50), harness.Percentile(firstLats, 0.95),
		harness.Percentile(firstLats, 0.99), harness.Percentile(firstLats, 1))
	fmt.Printf("session duration:       p50=%v p95=%v p99=%v max=%v\n",
		harness.Percentile(totalLats, 0.50), harness.Percentile(totalLats, 0.95),
		harness.Percentile(totalLats, 0.99), harness.Percentile(totalLats, 1))
	// The same two distributions as the service's own histograms record
	// them (/metrics methodology): first-frontier is stamped inside the
	// step that produced the frontier, end-to-end at the terminal
	// transition, so these exclude the loadgen's client-side overhead
	// that the lines above include.
	obs := svc.Observability()
	ff, ee := obs.FirstFrontier.Snapshot(), obs.EndToEnd.Snapshot()
	fmt.Printf("service histograms:     first-frontier p50=%v p95=%v p99=%v (n=%d), end-to-end p50=%v p95=%v p99=%v (n=%d)\n",
		ff.QuantileDuration(0.50).Round(time.Microsecond), ff.QuantileDuration(0.95).Round(time.Microsecond),
		ff.QuantileDuration(0.99).Round(time.Microsecond), ff.Count,
		ee.QuantileDuration(0.50).Round(time.Microsecond), ee.QuantileDuration(0.95).Round(time.Microsecond),
		ee.QuantileDuration(0.99).Round(time.Microsecond), ee.Count)
	fmt.Printf("warm starts: %d (%d cross-shape, remap total %v), cache: %d entries (%d shapes), %d exact + %d isomorphic hits, %d misses\n",
		st.WarmStarts, st.IsoWarmStarts, st.RemapTotal.Round(time.Microsecond),
		st.Cache.Entries, st.Cache.CanonEntries, st.Cache.ExactHits, st.Cache.IsoHits, st.Cache.Misses)
	var steals, pops uint64
	for _, ss := range st.Shards {
		steals += ss.Steals
		pops += ss.Pops
	}
	stepsPerPop := 0.0
	if pops > 0 {
		stepsPerPop = float64(st.Steps) / float64(pops)
	}
	fmt.Printf("shards: %d, steals: %d, steps/pop: %.2f, p99 inter-step gap: %v\n",
		len(st.Shards), steals, stepsPerPop, st.StepGapP99.Round(time.Microsecond))
	if st.Store.Persisted+st.Store.Loaded > 0 {
		fmt.Printf("store: %d persisted, %d loaded, %d rejected, %d segments (%d live / %d dead bytes), %d compactions\n",
			st.Store.Persisted, st.Store.Loaded, st.Store.Rejected,
			st.Store.Segments, st.Store.LiveBytes, st.Store.DeadBytes, st.Store.Compactions)
	}
	if st.DriftRecosted+st.DriftResumed+st.DriftQuarantined > 0 {
		fmt.Printf("drift: recosted=%d resumed=%d quarantined=%d, stale hits=%d, stats epoch=%d\n",
			st.DriftRecosted, st.DriftResumed, st.DriftQuarantined, st.Cache.StaleHits, st.StatsEpoch)
	}
	return nil
}

// runDriftLoadgen exercises the statistics-drift path end to end: it
// converges every TPC-H block to populate the warm-start cache, then
// applies a small, a large, and an incompatible statistics update in
// turn, re-driving the blocks after each. Per phase it reports the
// invalidation-class split (recosted / resumed / quarantined / exact)
// and — for the re-costed and resumed phases — the recovered plan
// quality: each drift-recovered frontier's per-dimension minimum cost
// against a from-scratch control optimization of the same query under
// the same (new) statistics. A worst ratio of 1.000 means drift
// recovery lost nothing.
func runDriftLoadgen(svc *service.Service, stats *catalog.Versioned, optCfg core.Config, concurrency int, sf float64) error {
	// The cache-less control service pays the cold path for every block —
	// the quality baseline drift recovery is measured against.
	control, err := service.New(service.Config{Opt: optCfg, CacheCapacity: -1})
	if err != nil {
		return err
	}
	defer control.Shutdown()

	buildBlocks := func() ([]workload.Block, error) {
		ep := stats.Current()
		return workload.BlocksFor(ep.Catalog, sf, ep.EdgeSel)
	}
	scaleRows := func(table string, factor float64) catalog.StatsUpdate {
		cat := stats.Current().Catalog
		rows := cat.Table(cat.MustID(table)).Rows * factor
		return catalog.StatsUpdate{Tables: []catalog.TableStats{{Name: table, Rows: rows}}}
	}
	noIndex := false

	blocks, err := buildBlocks()
	if err != nil {
		return err
	}
	fmt.Printf("drift loadgen: %d blocks per phase, concurrency %d\n", len(blocks), concurrency)

	phases := []struct {
		name    string
		update  func() catalog.StatsUpdate
		quality bool
	}{
		// Cold population: fills the warm-start cache under epoch 1.
		{name: "baseline"},
		// orders +20%, customer +10%: every affected snapshot re-costs in
		// place (small), untouched blocks warm-start exactly.
		{name: "small-drift", quality: true, update: func() catalog.StatsUpdate {
			u := scaleRows("orders", 1.2)
			u.Tables = append(u.Tables, scaleRows("customer", 1.1).Tables...)
			return u
		}},
		// lineitem ×4: past the threshold, refinement resumes from the
		// cached plan set.
		{name: "large-drift", quality: true, update: func() catalog.StatsUpdate {
			return scaleRows("lineitem", 4)
		}},
		// part loses its index: cached access paths are unsalvageable, the
		// stale entries are quarantined and those blocks start cold.
		{name: "incompatible", update: func() catalog.StatsUpdate {
			return catalog.StatsUpdate{Tables: []catalog.TableStats{{Name: "part", HasIndex: &noIndex}}}
		}},
	}
	for _, ph := range phases {
		if ph.update != nil {
			if _, err := stats.Apply(ph.update()); err != nil {
				return fmt.Errorf("phase %s: %w", ph.name, err)
			}
			if blocks, err = buildBlocks(); err != nil {
				return fmt.Errorf("phase %s: %w", ph.name, err)
			}
		}
		before := svc.Stats()
		warm, err := driveBlocks(svc, blocks, concurrency)
		if err != nil {
			return fmt.Errorf("phase %s: %w", ph.name, err)
		}
		after := svc.Stats()
		fmt.Printf("phase %-12s (epoch %d): recosted=%d resumed=%d quarantined=%d exact=%d, stale hits=%d\n",
			ph.name, stats.Version(),
			after.DriftRecosted-before.DriftRecosted,
			after.DriftResumed-before.DriftResumed,
			after.DriftQuarantined-before.DriftQuarantined,
			after.Cache.ExactHits-before.Cache.ExactHits,
			after.Cache.StaleHits-before.Cache.StaleHits)
		if ph.quality {
			cold, err := driveBlocks(control, blocks, concurrency)
			if err != nil {
				return fmt.Errorf("phase %s control: %w", ph.name, err)
			}
			worst, worstBlock := frontierQuality(warm, cold)
			fmt.Printf("  frontier quality vs cold control: worst min-cost ratio %.3f (block %s)\n", worst, worstBlock)
		}
	}
	return nil
}

// driveBlocks converges one session per block (bounded concurrency) and
// returns each block's converged status.
func driveBlocks(svc *service.Service, blocks []workload.Block, concurrency int) (map[string]service.Status, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	sem := make(chan struct{}, concurrency)
	var (
		mu       sync.Mutex
		out      = make(map[string]service.Status, len(blocks))
		firstErr error
		wg       sync.WaitGroup
	)
	for _, b := range blocks {
		wg.Add(1)
		sem <- struct{}{}
		go func(b workload.Block) {
			defer wg.Done()
			defer func() { <-sem }()
			id, err := svc.Create(b.Query)
			if err == nil {
				var st service.Status
				st, err = awaitTarget(svc, id)
				if cerr := svc.Close(id); err == nil {
					err = cerr
				}
				if err == nil {
					mu.Lock()
					out[b.Name] = st
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("block %s: %w", b.Name, err)
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	return out, firstErr
}

// frontierQuality compares drift-recovered frontiers against cold
// controls: for every block and cost dimension it takes the ratio of
// the warm frontier's minimum cost to the cold one's and returns the
// worst deviation from 1 (in either direction) and the block showing it.
func frontierQuality(warm, cold map[string]service.Status) (worst float64, worstBlock string) {
	worst = 1
	for name, c := range cold {
		w, ok := warm[name]
		if !ok || len(w.Frontier) == 0 || len(c.Frontier) == 0 {
			continue
		}
		dim := len(c.Frontier[0].Cost)
		for d := 0; d < dim; d++ {
			wmin, cmin := minCost(w.Frontier, d), minCost(c.Frontier, d)
			if wmin <= 0 || cmin <= 0 {
				continue
			}
			dev := wmin / cmin
			if dev < 1 {
				dev = 1 / dev
			}
			if dev > worst {
				worst, worstBlock = dev, name
			}
		}
	}
	return worst, worstBlock
}

func minCost(frontier []*plan.Node, d int) float64 {
	min := frontier[0].Cost[d]
	for _, p := range frontier[1:] {
		if p.Cost[d] < min {
			min = p.Cost[d]
		}
	}
	return min
}

// driveSession plays one profile: create (retrying overload refusals
// with backoff), poll to the first frontier, drag bounds BoundsResets
// times (each re-converging to target), then select or abandon.
// Returns first-frontier and total latency plus the creates retried.
func driveSession(svc *service.Service, p workload.SessionProfile, rng *rand.Rand) (first, total time.Duration, tries int, err error) {
	start := time.Now()
	id, tries, err := createWithRetry(svc, p.Block.Query, rng)
	if err != nil {
		return 0, 0, tries, err
	}
	st, err := awaitTarget(svc, id)
	if err != nil {
		return 0, 0, tries, err
	}
	first = st.FirstFrontier
	for i := 0; i < p.BoundsResets && len(st.Frontier) > 0; i++ {
		b := st.Frontier[0].Cost.Scale(p.BoundsScale)
		if err := svc.SetBounds(id, b); err != nil {
			return 0, 0, tries, err
		}
		if st, err = awaitTarget(svc, id); err != nil {
			return 0, 0, tries, err
		}
	}
	if p.Selects && len(st.Frontier) > 0 {
		_, err = svc.Select(id, 0, st.Steps)
	} else {
		err = svc.Close(id)
	}
	if err != nil {
		return 0, 0, tries, err
	}
	return first, time.Since(start), tries, nil
}

// createWithRetry is the recommended 429 client behavior, exercised
// in-process: overload refusals back off exponentially with ±50%
// jitter, capped at the 1s Retry-After the HTTP surface advertises, so
// shed load turns into recovered throughput instead of failures.
func createWithRetry(svc *service.Service, q *query.Query, rng *rand.Rand) (string, int, error) {
	const (
		retryAfter = time.Second // cap: what the 429 Retry-After promises
		maxTries   = 50
	)
	backoff := 5 * time.Millisecond
	for tries := 0; ; tries++ {
		id, err := svc.Create(q)
		if err == nil || !errors.Is(err, service.ErrOverloaded) || tries == maxTries {
			return id, tries, err
		}
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		time.Sleep(d)
		if backoff *= 2; backoff > retryAfter {
			backoff = retryAfter
		}
	}
}

// awaitTarget blocks on the service's step-completion signal until the
// session's current regime reaches target precision: WaitTargetTimeout
// parks on a condition variable instead of polling, so many waiting
// clients cost the refinement workers nothing and a waited-on session
// cannot idle-expire; service shutdown releases the wait with an
// error. The deadline only guards against hangs (under heavy fan-out
// on few cores a fair-shared session legitimately takes minutes).
func awaitTarget(svc *service.Service, id string) (service.Status, error) {
	st, err := svc.WaitTargetTimeout(id, 15*time.Minute)
	if err != nil {
		return st, err
	}
	if st.State != service.AtTarget {
		return st, fmt.Errorf("session %s ended in state %v", id, st.State)
	}
	return st, nil
}
