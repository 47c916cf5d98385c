package service

import (
	"fmt"
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Observability bundles the service's metric instruments and the
// finished-session trace archive. Each instrument is created on the
// registry under its family name where it is declared (newObservability,
// newScheduler, NewPlanCache): one word that the paths record into,
// Stats reads back and moqod's GET /metrics renders (DESIGN.md D13).
// Recording is atomics only, zero allocation; the archive backs the
// trace endpoint and the slow-session log.
type Observability struct {
	// Registry holds every registered metric family; moqod renders it
	// in Prometheus text exposition at GET /metrics.
	Registry *metrics.Registry

	// FirstFrontier is the creation → first-non-empty-frontier latency
	// distribution — the interactive metric the warm-start cache exists
	// to improve.
	FirstFrontier *metrics.Histogram
	// StepGap is the distribution of start-to-start intervals between a
	// session's consecutive refinement steps (the per-step view of the
	// starvation audit whose p99 Stats reports).
	StepGap *metrics.Histogram
	// QueueWait is the time between a session's (re-)enqueue and the
	// first step of the pop that serviced it.
	QueueWait *metrics.Histogram
	// QuantumSteps is the steps-per-pop distribution (how much of the
	// configured quantum batches actually use before convergence or a
	// hot preemption).
	QuantumSteps *metrics.Histogram
	// EndToEnd is the creation → terminal-transition wall time of
	// finished sessions.
	EndToEnd *metrics.Histogram
	// Remap is the isomorphic snapshot-rewrite latency (session-creation
	// path only).
	Remap *metrics.Histogram
	// Recost is the statistics-drift re-cost latency (session-creation
	// path only, like Remap).
	Recost *metrics.Histogram
	// DriftMagnitude is the distribution of maximum relative statistic
	// change observed at stale-tier hits, in permille (a drift of 1.0 —
	// a statistic doubling or vanishing — records as 1000).
	DriftMagnitude *metrics.Histogram
	// StepsToEpsilon is the convergence-speed distribution: per
	// converged regime, how many frontier-producing steps it took until
	// the running-best scalarization came within the target precision
	// factor of the regime's final value (computed from the session's
	// curve spans at convergence; see curve.go).
	StepsToEpsilon *metrics.Histogram
	// QualityAtDeadline is the resolution-ladder progress, in permille,
	// of every session at its terminal transition: 1000 means the last
	// regime converged, lower values mean the session ended (selected,
	// expired, timed out...) partway up the precision ladder.
	QualityAtDeadline *metrics.Histogram
	// StoreRead and Decode are the latencies of the two halves of
	// fetching a snapshot from the store — loading the record, decoding
	// it — and StoreReadsBoot/Hit and DecodesBoot/Hit count them by when
	// they ran: before the node reported ready (the records the
	// checkpoint's hot set named) or on a cache miss the store answered
	// (DESIGN.md D19). StoreReadErrors counts the
	// loads the filesystem failed: those sessions started cold, nothing
	// was quarantined. The decode instruments exist with the cache, the
	// store-read ones with the store; nil otherwise.
	StoreRead, Decode             *metrics.Histogram
	StoreReadsBoot, StoreReadsHit *metrics.Counter
	DecodesBoot, DecodesHit       *metrics.Counter
	StoreReadErrors               *metrics.Counter

	// Session lifecycle counters, each one Stats field (see there).
	created, selected, closed, expired, failed, timedOut *metrics.Counter
	poisoned, rejected, steps, warmStarts, isoWarmStarts *metrics.Counter
	drift                                                [driftQuarantined + 1]*metrics.Counter // creates by driftOutcome; driftNone unused
	drainConverged, drainCheckpointed                    *metrics.Counter

	archive *trace.Archive
}

// archiveCap bounds the recent-traces archive: 256 traces × up to 2 KiB
// of spans each ≈ 0.5 MiB, the finished-session analogue of the
// step-gap ring.
const archiveCap = 256

// newObservability builds the service's instruments on a new registry.
// cache and store say whether the node has a warm-start cache and a
// snapshot store: the cold tier's families exist only with them.
func newObservability(cache, store bool) *Observability {
	r := metrics.NewRegistry()
	o := &Observability{
		Registry:          r,
		created:           r.Counter("moqod_sessions_created_total", "Sessions created.", ""),
		selected:          r.Counter("moqod_sessions_selected_total", "Sessions finished by plan selection.", ""),
		closed:            r.Counter("moqod_sessions_closed_total", "Sessions closed without selecting.", ""),
		expired:           r.Counter("moqod_sessions_expired_total", "Sessions reclaimed by the idle janitor.", ""),
		failed:            r.Counter("moqod_sessions_failed_total", "Sessions killed by a recovered step panic.", ""),
		timedOut:          r.Counter("moqod_sessions_timed_out_total", "Sessions reclaimed at their wall-clock deadline.", ""),
		poisoned:          r.Counter("moqod_snapshots_poisoned_total", "Warm-start sources quarantined after a restore or first-step failure.", ""),
		rejected:          r.Counter("moqod_sessions_rejected_total", "Create calls refused by admission control.", ""),
		steps:             r.Counter("moqod_steps_total", "Refinement steps executed by the scheduler.", ""),
		warmStarts:        r.Counter("moqod_warm_starts_total", "Sessions created from a cached snapshot (exact and isomorphic).", ""),
		isoWarmStarts:     r.Counter("moqod_iso_warm_starts_total", "Warm starts restored via the isomorphism tier (snapshot remap).", ""),
		drainConverged:    r.Counter("moqod_drain_converged_total", "Live sessions that reached target inside the drain grace window.", ""),
		drainCheckpointed: r.Counter("moqod_drain_checkpointed_total", "Sessions checkpointed mid-refinement by the drain.", ""),

		// Exemplars link a slow bucket to the session that filled it
		// (GET /debug/sessions/{id}/trace). FirstFrontier captures in
		// every bucket — it is observed once per session, so any bucket's
		// exemplar is representative; StepGap only bothers the tail (a
		// sub-millisecond gap is healthy scheduling, not worth a slot
		// update per step).
		FirstFrontier: r.Histogram("moqod_first_frontier_seconds", "Creation to first non-empty frontier.", "",
			metrics.NewDuration().EnableExemplars(0)),
		StepGap: r.Histogram("moqod_step_gap_seconds", "Start-to-start interval between a session's consecutive refinement steps.", "",
			metrics.NewDuration().EnableExemplars(int64(time.Millisecond))),
		QueueWait:    r.Histogram("moqod_queue_wait_seconds", "Enqueue to first step of the servicing pop.", "", metrics.NewDuration()),
		QuantumSteps: r.Histogram("moqod_quantum_steps", "Refinement steps executed per queue pop.", "", metrics.NewValues(1, 2, 4, 8, 16, 32)),
		EndToEnd:     r.Histogram("moqod_session_duration_seconds", "Creation to terminal transition of finished sessions.", "", metrics.NewDuration()),
		Remap:        r.Histogram("moqod_remap_seconds", "Isomorphic snapshot rewrite latency at session creation.", "", metrics.NewDuration()),
		Recost:       r.Histogram("moqod_recost_seconds", "Statistics-drift re-cost latency at session creation.", "", metrics.NewDuration()),
		DriftMagnitude: r.Histogram("moqod_drift_magnitude_permille", "Maximum relative statistic change at stale-tier hits (permille).", "",
			metrics.NewValues(10, 25, 50, 100, 250, 500, 1000, 2500, 5000)),
		StepsToEpsilon: r.Histogram("moqod_steps_to_epsilon", "Frontier-producing steps until the running-best scalarization reached the target precision factor of the regime's final value.", "",
			metrics.NewValues(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)),
		QualityAtDeadline: r.Histogram("moqod_quality_at_deadline_permille", "Resolution-ladder progress at the terminal transition (1000 = last regime converged).", "",
			metrics.NewValues(100, 250, 500, 750, 900, 950, 990, 1000)),
		archive: trace.NewArchive(archiveCap),
	}
	for d := driftRecosted; d <= driftQuarantined; d++ {
		o.drift[d] = r.Counter("moqod_drift_total", "Statistics-drift resolutions by class.", `class="`+d.String()+`"`)
	}
	if cache {
		const help = "Replayed cache entries decoded, by when: before ready (hinted) or on first hit."
		o.DecodesBoot = r.Counter("moqod_cache_decodes_total", help, `when="boot"`)
		o.DecodesHit = r.Counter("moqod_cache_decodes_total", help, `when="hit"`)
		o.Decode = r.Histogram("moqod_cache_decode_seconds", "Latency of decoding one replayed cache entry's snapshot.", "", metrics.NewDuration())
	}
	if store {
		const help = "Records loaded from the store for a cache entry, by when: before ready (hinted) or on first hit."
		o.StoreReadsBoot = r.Counter("moqod_store_reads_total", help, `when="boot"`)
		o.StoreReadsHit = r.Counter("moqod_store_reads_total", help, `when="hit"`)
		o.StoreReadErrors = r.Counter("moqod_store_read_errors_total", "Record loads the filesystem failed (the session started cold; nothing was quarantined).", "")
		o.StoreRead = r.Histogram("moqod_store_read_seconds", "Latency of loading one record from the store.", "", metrics.NewDuration())
	}
	return o
}

// Observability returns the service's metric instruments, registry and
// trace archive.
func (s *Service) Observability() *Observability { return s.obs }

// Registry returns the metrics registry moqod serves at GET /metrics.
func (s *Service) Registry() *metrics.Registry { return s.obs.Registry }

// SessionTrace returns the lifecycle trace of a live session, falling
// back to the recent-traces archive for sessions that already finished.
func (s *Service) SessionTrace(id string) (trace.Data, error) {
	if m, ok := s.mgr.get(id); ok {
		m.mu.Lock()
		tr := m.trace
		var d trace.Data
		if tr != nil {
			d = tr.Snapshot()
		}
		m.mu.Unlock()
		if tr != nil {
			return d, nil
		}
	}
	if d, ok := s.obs.archive.Find(id); ok {
		return d, nil
	}
	return trace.Data{}, fmt.Errorf("service: no trace for session %q", id)
}

// RecentTraces returns up to max recently finished sessions' traces,
// newest first (max <= 0 means all archived).
func (s *Service) RecentTraces(max int) []trace.Data {
	return s.obs.archive.Recent(max)
}

// observeEnd records a session's terminal transition: the terminal
// span, the end-to-end latency sample, archive sampling and the
// slow-session hook. It returns the session's max inter-step gap for
// the caller's starvation ring. Callers must not hold m.mu.
func (s *Service) observeEnd(m *managed, k trace.Kind) time.Duration {
	now := time.Now()
	m.mu.Lock()
	gap := m.maxStepGap
	total := now.Sub(m.created)
	steps := m.steps
	// Quality at deadline: how far up the precision ladder the session
	// got before ending, in permille of the full ladder. 1000 means the
	// last regime converged; a cold kill before the first step scores 0.
	quality := int64(-1)
	if m.sess != nil {
		maxRes := m.sess.Optimizer().Config().MaxResolution()
		quality = int64(1000*(m.sess.Resolution()+1)) / int64(maxRes+1)
	}
	slow := s.cfg.SlowSession > 0 && s.cfg.SlowSessionLog != nil &&
		total >= s.cfg.SlowSession && m.trace != nil
	var data trace.Data
	tr := m.trace
	if tr != nil {
		tr.Append(k, now, 0, 0)
		// Archive under m.mu: a worker mid-quantum can still seal its
		// batch span after the state flipped terminal, so the copy must
		// not race it. The archive mutex is a leaf (never held while
		// taking any other lock), so m.mu → archive.mu is safe.
		s.obs.archive.Add(tr)
		if slow {
			data = tr.Snapshot()
		}
		// Clear before recycling: any late appender or SessionTrace
		// checks m.trace under m.mu, so after this point they see nil
		// (and fall through to the archive), never a recycled ring.
		m.trace = nil
	}
	m.mu.Unlock()
	trace.Put(tr)
	s.obs.EndToEnd.ObserveDuration(total)
	if quality >= 0 {
		s.obs.QualityAtDeadline.Observe(quality)
	}
	if ev := s.cfg.Events; ev != nil {
		lv := eventlog.LevelInfo
		fields := [3]eventlog.Field{
			eventlog.Fdur("total", total),
			eventlog.Fint("steps", int64(steps)),
			eventlog.Fint("quality_permille", quality),
		}
		if k == trace.KindFailed {
			lv = eventlog.LevelWarn
		}
		ev.EmitSession(lv, "service", "session finished", m.id, m.key.FP, k.String(), fields[:]...)
	}
	if slow {
		s.cfg.SlowSessionLog(total, data)
	}
	return gap
}

// registerMetrics adds what newObservability, newScheduler and
// NewPlanCache do not create: scrape-time gauges over live state, and
// the bridges to counts other packages keep under their own locks (the
// store's, the event log's, the runtime's). Called once at the end of
// New; the closures read lock-free gauges or take only cold-path locks.
func (s *Service) registerMetrics() {
	r := s.obs.Registry

	r.GaugeFunc("moqod_stats_epoch", "Current statistics-epoch label of the versioned catalog.", "", func() float64 {
		return float64(s.statsEpoch())
	})
	r.GaugeFunc("moqod_active_sessions", "Current live sessions.", "", func() float64 {
		return float64(s.mgr.count())
	})
	r.GaugeFunc("moqod_queued_sessions", "Current scheduler backlog.", "", func() float64 {
		return float64(s.sched.queueLen())
	})
	r.GaugeFunc("moqod_hot_queue_depth", "Live hot-queue entries.", "", func() float64 {
		return float64(s.sched.hotLen.Load())
	})
	r.GaugeFunc("moqod_draining", "1 once a drain has started (monotonic).", "", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})

	metrics.RegisterRuntime(r)

	if ev := s.cfg.Events; ev != nil {
		for _, lv := range []eventlog.Level{eventlog.LevelDebug, eventlog.LevelInfo, eventlog.LevelWarn, eventlog.LevelError} {
			lv := lv
			r.CounterFunc("moqod_events_dropped_total", "Structured events shed by the event-log rate limiter.",
				fmt.Sprintf(`level="%s"`, lv), func() uint64 { return ev.Dropped(lv) })
		}
	}

	if c := s.cache; c != nil {
		r.GaugeFunc("moqod_cache_entries", "Cached snapshots.", "", func() float64 {
			return float64(c.Stats().Entries)
		})
	}

	if s.store != nil {
		st := s.store
		in := st.Instruments()
		r.Histogram("moqod_store_append_seconds", "Background writer per-record append latency.", "", in.Append)
		r.Histogram("moqod_store_flush_seconds", "Segment fsync latency (flush acks and rollovers).", "", in.Flush)
		r.Histogram("moqod_store_queue_depth", "Writer backlog observed at each append.", "", in.Depth)
		r.GaugeFunc("moqod_store_pending", "Current writer-queue backlog.", "", func() float64 {
			return float64(st.QueueDepth())
		})
		// Every store sample reads one word without the store's lock, which
		// the writer holds across whole appends, fsyncs and compactions.
		r.CounterFunc("moqod_store_persisted_total", "Records appended since open.", "", in.Persisted.Value)
		r.CounterFunc("moqod_store_dropped_total", "Puts shed because the writer queue was full.", "", in.Dropped.Value)
		r.CounterFunc("moqod_store_write_errors_total", "Failed appends and syncs.", "", in.WriteErrors.Value)
		r.CounterFunc("moqod_store_flushes_total", "Explicit flush acks served.", "", in.Flushes.Value)
		r.GaugeFunc("moqod_store_degraded", "1 while the store is in memory-only degraded mode.", "", func() float64 {
			if st.Degraded() {
				return 1
			}
			return 0
		})
		r.CounterFunc("moqod_store_degraded_enters_total", "Transitions into degraded (memory-only) mode.", "", in.DegradedEnters.Value)
		r.CounterFunc("moqod_store_degraded_drops_total", "Records dropped while the store was degraded.", "", in.DegradedDrops.Value)
		r.CounterFunc("moqod_store_probes_total", "Disk re-probe attempts while degraded.", "", in.Probes.Value)
		r.CounterFunc("moqod_store_tombstones_total", "Quarantine tombstones written or scanned.", "", in.Tombstones.Value)
	}
}
