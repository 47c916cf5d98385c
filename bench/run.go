package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	wl "repro/internal/workload"
)

// metricValue is one reported number. Samples and Pct are set for
// percentile metrics: how many samples the percentile was taken over, and
// which percentile a _tail metric used.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Pct     int     `json:"pct,omitempty"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload       string                 `json:"workload"`
	Seed           int64                  `json:"seed"`
	Seconds        float64                `json:"seconds"`
	Traced         bool                   `json:"traced"`
	Correct        bool                   `json:"correct"`
	WallS          float64                `json:"wall_s"` // timed phase
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Metrics        map[string]metricValue `json:"metrics"`
	Routes         map[string]routeCount  `json:"routes"`
	FrontierDigest string                 `json:"frontier_digest"`
	Counts         map[string]int         `json:"counts"`
	Failures       []string               `json:"failures,omitempty"`
}

// runConfig fixes one run.
type runConfig struct {
	W       workload
	Seed    int64
	Seconds float64
	// MaxSessions additionally caps the timed phase (0 = no cap); the
	// smoke test uses it to run a fixed, small number of sessions.
	MaxSessions int
	Traced      bool
	Clients     int
	SetupReps   int
	Launch      launcher
	// WorkDir holds the run's store directories; ResultsDir receives the
	// trace file.
	WorkDir, ResultsDir string
	// ProbeQueries is how many of the workload's leading distinct queries
	// the in-process probes replay on a traced run (0 = no probes).
	ProbeQueries int
}

func (cfg runConfig) node(cacheDir string) nodeConfig {
	return nodeConfig{CacheDir: cacheDir, NoCache: cfg.W.NoCache}
}

// prepared is the state one set-up leaves behind for the timed phase.
type prepared struct {
	chk      *checker
	srv      server // nil for a workload that boots inside the timed phase
	cacheDir string
	blocks   []wl.Block
	readyMS  []float64
}

// phase accumulates the timed phase.
type phase struct {
	results  []sessionResult
	rec      *recorder
	wallS    float64
	cpu      procCPU
	peakRSS  []float64
	rss      *rssSampler
	readyMS  []float64
	drainMS  []float64
	cycles   int
	scrapes  []scrape
	failures []string
}

func (p *phase) failf(format string, args ...any) {
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

const (
	// extraBoots is how many additional cold boots a single-boot workload
	// times for ready_ms: three set-up boots alone leave the median of a
	// 5 ms quantity with a 15 % spread.
	extraBoots = 16
	// signalGrace is how long such a boot is left alone before SIGTERM.
	// moqod answers /readyz with 200 about a millisecond before it
	// installs its signal handler (cmd/moqod: a.Ready precedes
	// signal.Notify); a SIGTERM inside that window kills it undrained.
	signalGrace = 20 * time.Millisecond
)

// oracleLookahead is how many leading session scripts set-up scans for
// queries eligible for an exhaustive reference.
const oracleLookahead = 48

// setUp performs one complete set-up: inputs, references, boot, pre-warm.
func setUp(ctx context.Context, cfg runConfig, rec *recorder) (*prepared, error) {
	blocks, err := wl.TPCHBlocks(1)
	if err != nil {
		return nil, err
	}
	p := &prepared{chk: newChecker(), blocks: blocks}
	specs := cfg.W.Prewarm()
	for i := 0; i < oracleLookahead; i++ {
		specs = append(specs, cfg.W.Script(cfg.Seed, i).Query)
	}
	if _, err := p.chk.addOracles(specs, blocks); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if cfg.W.CacheDir {
		if p.cacheDir, err = os.MkdirTemp(cfg.WorkDir, "store-"); err != nil {
			return nil, err
		}
	}
	srv, err := cfg.Launch(ctx, cfg.node(p.cacheDir), rec)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	p.readyMS = append(p.readyMS, srv.ReadyMS())

	// Pre-warm: converge every pool query once, abandon the session.
	var scripts []sessionScript
	for _, q := range cfg.W.Prewarm() {
		scripts = append(scripts, sessionScript{Index: -1, Query: q})
	}
	results := driveSessions(ctx, srv.Base(), cfg.Clients, nil, rec, p.chk, func(i int) (sessionScript, bool) {
		if i >= len(scripts) {
			return sessionScript{}, false
		}
		return scripts[i], true
	})
	for _, r := range results {
		if r.Fail != "" {
			p.discard()
			return nil, fmt.Errorf("pre-warm session failed: %s", r.Fail)
		}
	}
	if cfg.W.CycleSessions > 0 {
		// The timed phase does the booting; leave a flushed store behind.
		p.srv = nil
		if _, err := srv.Stop(); err != nil {
			p.discard()
			return nil, err
		}
	}
	return p, nil
}

// discard stops the node and removes the store of a set-up.
func (p *prepared) discard() {
	if p.srv != nil {
		_, _ = p.srv.Stop() // best effort: the run is over or being redone
		p.srv = nil
	}
	if p.cacheDir != "" {
		os.RemoveAll(p.cacheDir)
	}
}

// driveSessions runs the closed loop: clients goroutines, each on its own
// connection, each taking the next script when its previous session is
// done. next returns false when there is nothing left to start.
func driveSessions(ctx context.Context, base string, clients int, tr *tracer, rec *recorder, chk *checker, next func(i int) (sessionScript, bool)) []sessionResult {
	var (
		counter atomic.Int64
		mu      sync.Mutex
		out     []sessionResult
		wg      sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic here would take the process down without unwinding
			// the main goroutine, and with it the defers that reap moqod.
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					out = append(out, sessionResult{Index: -1, Fail: fmt.Sprintf("harness panic: %v", r)})
					mu.Unlock()
				}
			}()
			cl := newClient(base, tr)
			defer cl.close()
			var mine []sessionResult
			for ctx.Err() == nil {
				sc, ok := next(int(counter.Add(1) - 1))
				if !ok {
					break
				}
				mine = append(mine, cl.runSession(ctx, sc, chk))
			}
			mu.Lock()
			out = append(out, mine...)
			rec.merge(cl.rec)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// runWorkload runs set-up (SetupReps times, keeping the last), the timed
// phase and — on a traced run — the scrape and the probes.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	setupRec := newRecorder()
	var (
		prep    *prepared
		setupS  []float64
		readyMS []float64
	)
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if prep != nil {
			prep.discard()
		}
		start := time.Now()
		p, err := setUp(ctx, cfg, setupRec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		readyMS = append(readyMS, p.readyMS...)
		prep = p
	}
	defer prep.discard()

	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	ph := &phase{rec: newRecorder(), rss: startRSSSampler()}
	defer ph.rss.finish()
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	more := func(i int) bool {
		return time.Now().Before(deadline) && (cfg.MaxSessions == 0 || i < cfg.MaxSessions)
	}
	var err error
	if cfg.W.CycleSessions > 0 {
		err = timedCycles(ctx, cfg, prep, ph, tr, more)
	} else {
		err = timedSingle(ctx, cfg, prep, ph, tr, more)
	}
	if err != nil {
		return nil, err
	}
	if cfg.W.CycleSessions == 0 {
		// Single-boot workloads have no boots inside the timed phase;
		// their ready_ms is the median over the set-up boots and
		// extraBoots more, taken now that the timed node is gone.
		for i := 0; i < extraBoots; i++ {
			srv, err := cfg.Launch(ctx, cfg.node(""), setupRec)
			if err != nil {
				return nil, fmt.Errorf("boot %d for ready_ms: %w", i, err)
			}
			readyMS = append(readyMS, srv.ReadyMS())
			time.Sleep(signalGrace)
			if _, err := srv.Stop(); err != nil {
				return nil, err
			}
		}
		ph.readyMS = readyMS
	}

	// The set-up boots count towards the readyz route; its pre-warm
	// sessions are not part of the timed phase and stay out.
	ph.rec.Routes["readyz"].add(*setupRec.Routes["readyz"])
	res := summarize(cfg, prep.chk, ph, setupS)
	if cfg.Traced {
		layer := layerMetrics(cfg, ph, res)
		if cfg.ProbeQueries > 0 {
			probeMetrics(cfg, prep.blocks, tr, layer)
		}
		res.Metrics = layer
		if err := os.MkdirAll(cfg.ResultsDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.ResultsDir, "trace-"+cfg.W.Name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedSingle drives the timed phase against the node set-up left running.
func timedSingle(ctx context.Context, cfg runConfig, prep *prepared, ph *phase, tr *tracer, more func(int) bool) error {
	srv := prep.srv
	pid := srv.PID()
	var before scrape
	if cfg.Traced {
		before = scrapeNode(srv.Base(), false)
	}
	cpu0, err := readProcCPU(pid)
	if err != nil {
		return err
	}
	start := time.Now()
	ph.rss.watch(pid)
	ph.results = driveSessions(ctx, srv.Base(), cfg.Clients, tr, ph.rec, prep.chk, func(i int) (sessionScript, bool) {
		if !more(i) {
			return sessionScript{}, false
		}
		return cfg.W.Script(cfg.Seed, i), true
	})
	ph.rss.watch(0)
	ph.wallS = time.Since(start).Seconds()
	cpu1, err := readProcCPU(pid)
	if err != nil {
		return err
	}
	ph.cpu = procCPU{UserS: cpu1.UserS - cpu0.UserS, SysS: cpu1.SysS - cpu0.SysS}
	rss, err := readPeakRSSMB(pid)
	if err != nil {
		return err
	}
	ph.peakRSS = append(ph.peakRSS, rss)
	if cfg.Traced {
		ph.scrapes = append(ph.scrapes, scrapeNode(srv.Base(), true).minus(before))
	}
	prep.srv = nil
	drain, err := srv.Stop()
	if err != nil {
		ph.failf("stop: %v", err)
	}
	ph.drainMS = append(ph.drainMS, drain)
	return nil
}

// timedCycles drives the restart workload: boot on the persisted store,
// one cycle of sessions, SIGTERM, wait for the exit — until time is up.
func timedCycles(ctx context.Context, cfg runConfig, prep *prepared, ph *phase, tr *tracer, more func(int) bool) error {
	n := cfg.W.CycleSessions
	start := time.Now()
	for cycle := 0; more(cycle * n); cycle++ {
		if err := oneCycle(ctx, cfg, prep, ph, tr, cycle); err != nil {
			return err
		}
		ph.cycles++
	}
	ph.wallS = time.Since(start).Seconds()
	return nil
}

// oneCycle is one boot of the restart workload.
func oneCycle(ctx context.Context, cfg runConfig, prep *prepared, ph *phase, tr *tracer, cycle int) error {
	n := cfg.W.CycleSessions
	srv, err := cfg.Launch(ctx, cfg.node(prep.cacheDir), ph.rec)
	if err != nil {
		return fmt.Errorf("cycle %d boot: %w", cycle, err)
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.Stop() // an error is already on its way out
		}
	}()
	ph.readyMS = append(ph.readyMS, srv.ReadyMS())
	ph.rss.watch(srv.PID())
	results := driveSessions(ctx, srv.Base(), cfg.Clients, tr, ph.rec, prep.chk, func(i int) (sessionScript, bool) {
		if i >= n || (cfg.MaxSessions > 0 && cycle*n+i >= cfg.MaxSessions) {
			return sessionScript{}, false
		}
		return cfg.W.Script(cfg.Seed, cycle*n+i), true
	})
	ph.rss.watch(0)
	for i := range results {
		results[i].Boot = cycle
	}
	ph.results = append(ph.results, results...)
	// A restarted process starts its CPU clock at zero, so the reading
	// before SIGTERM is the cycle's boot, replay and session CPU.
	cpu, err := readProcCPU(srv.PID())
	if err != nil {
		return err
	}
	ph.cpu.UserS += cpu.UserS
	ph.cpu.SysS += cpu.SysS
	rss, err := readPeakRSSMB(srv.PID())
	if err != nil {
		return err
	}
	ph.peakRSS = append(ph.peakRSS, rss)
	if cfg.Traced {
		ph.scrapes = append(ph.scrapes, scrapeNode(srv.Base(), true))
	}
	stopped = true
	drain, err := srv.Stop()
	if err != nil {
		ph.failf("cycle %d stop: %v", cycle, err)
	}
	ph.drainMS = append(ph.drainMS, drain)
	return nil
}

// summarize turns the timed phase into the end-to-end metrics.
func summarize(cfg runConfig, chk *checker, ph *phase, setupS []float64) *runResult {
	res := &runResult{
		Workload: cfg.W.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced, WallS: ph.wallS,
		Metrics: map[string]metricValue{}, Routes: map[string]routeCount{}, Counts: map[string]int{},
	}
	var first, target, regime, kb []float64
	completed := 0
	for _, r := range ph.results {
		res.Attempted++
		if r.Fail != "" {
			res.Failed++
			ph.failf("session %d (%s): %s", r.Index, r.ID, r.Fail)
			continue
		}
		completed++
		res.Counts["provenance_"+r.Provenance]++
		first = append(first, r.FirstMS)
		target = append(target, r.TargetMS)
		regime = append(regime, r.RegimeMS...)
		for _, b := range r.TargetBytes {
			kb = append(kb, b/1024)
		}
	}
	put := func(name, unit string, v float64, samples, pct int) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples, Pct: pct}
	}
	_, setupMed, _ := quartiles(setupS)
	_, readyMed, _ := quartiles(ph.readyMS)
	rssSamples := ph.rss.finish()
	_, rssMed, _ := quartiles(rssSamples)
	put("setup_s", "s", setupMed, len(setupS), 0)
	put("sessions_per_s", "1/s", float64(completed)/ph.wallS, completed, 0)
	put("first_frontier_ms_p50", "ms", percentile(first, 50), len(first), 50)
	put("first_frontier_ms_tail", "ms", percentile(first, cfg.W.Tail.FirstFrontier), len(first), cfg.W.Tail.FirstFrontier)
	put("time_to_target_ms_p50", "ms", percentile(target, 50), len(target), 50)
	put("time_to_target_ms_tail", "ms", percentile(target, cfg.W.Tail.Target), len(target), cfg.W.Tail.Target)
	put("regime_ms_p50", "ms", percentile(regime, 50), len(regime), 50)
	put("poll_kb_at_target", "KB", mean(kb), len(kb), 0)
	put("ready_ms", "ms", readyMed, len(ph.readyMS), 0)
	put("server_cpu_ms_per_session", "ms", 1000*(ph.cpu.UserS+ph.cpu.SysS)/float64(max(completed, 1)), completed, 0)
	put("rss_mb", "MB", rssMed, len(rssSamples), 0)

	for name, c := range ph.rec.Routes {
		res.Routes[name] = *c
	}
	res.Counts["sessions_completed"] = completed
	res.Counts["regimes"] = len(regime)
	res.Counts["cycles"] = ph.cycles
	res.Counts["oracle_checks"] = chk.oracleChecks
	res.Counts["reuse_checks"] = chk.reuseChecks
	res.FrontierDigest = chk.frontierDigest()
	res.Failures = ph.failures
	res.Correct = res.Failed == 0 && len(ph.failures) == 0 && completed > 0
	return res
}
