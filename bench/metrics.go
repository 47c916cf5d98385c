package main

// endToEndDef declares one end-to-end metric: what a user of moqod would
// see. Bound is the share of the parent's median by which the metric may
// get worse before -compare (and the driver) call it a regression.
type endToEndDef struct {
	Name, Unit, Better string
	Bound              float64
	Def                string
}

// Every timing sits at the contract's maximum of 0.25. Across ten seeds
// the quartile spread of a timing was 4–15 % (README.md, "Run-to-run
// spread"), and the reference host's own speed drifted by up to 20 %
// between two sweeps of the same code half an hour apart, so nothing
// tighter would hold. rss_mb follows the host's speed on restart_cycle (a
// faster host runs more cycles and grows a bigger log); only
// poll_kb_at_target, a property of the inputs, is steadier.
var endToEnd = []endToEndDef{
	{"setup_s", "s", "lower", 0.25, "one complete set-up (inputs, exhaustive references, moqod boot, pre-warm), median of the run's three"},
	{"sessions_per_s", "1/s", "higher", 0.25, "completed sessions / wall time of the timed phase"},
	{"first_frontier_ms_p50", "ms", "lower", 0.25, "create sent → first poll response with a non-empty frontier"},
	{"first_frontier_ms_tail", "ms", "lower", 0.25, ""},
	{"time_to_target_ms_p50", "ms", "lower", 0.25, "create sent → first at-target response (time to αT)"},
	{"time_to_target_ms_tail", "ms", "lower", 0.25, ""},
	{"regime_ms_p50", "ms", "lower", 0.25, "bounds POST sent → next at-target response"},
	{"poll_kb_at_target", "KB", "lower", 0.15, "mean size of the poll bodies that reported at-target on an unbounded regime"},
	{"ready_ms", "ms", "lower", 0.25, "child spawn → first 200 of /readyz, median over the workload's boots"},
	{"server_cpu_ms_per_session", "ms", "lower", 0.25, "Δ(utime+stime) of the moqod pid over the timed phase / completed sessions"},
	{"rss_mb", "MB", "lower", 0.25, "resident set size of the moqod pid, median of the samples taken every 50 ms of the timed phase"},
}

// layerDef declares one per-layer metric. Source says where the number
// comes from — client (spans around the HTTP calls), scrape (/statz,
// /metrics, /debug/traces, /proc after the timed phase) or probe (the
// layer's public functions replayed in-process) — and Moves which
// end-to-end metric on which workload a change to it should move.
type layerDef struct {
	Name, Unit, Better, Layer, Source, Moves string
}

const (
	movesCold = "time_to_target_ms_p50, server_cpu_ms_per_session on cold_distinct; regime_ms_p50 on interactive_drag; flat on warm_repeat, restart_cycle"
	movesWarm = "first_frontier_ms_p50, sessions_per_s on warm_repeat; flat on cold_distinct"
)

var perLayer = []layerDef{
	{"query.build_us", "us", "lower", "query", "probe", movesWarm},
	{"query.fingerprint_us", "us", "lower", "query", "probe", movesWarm},
	{"query.canonical_fp_us", "us", "lower", "query", "probe", movesWarm},
	{"query.structural_fp_us", "us", "lower", "query", "probe", movesWarm},

	{"cost.dominates_ns", "ns", "lower", "cost", "probe", movesCold},
	{"rangeindex.insert_ns", "ns", "lower", "rangeindex", "probe", movesCold},
	{"rangeindex.query_ns_per_entry", "ns", "lower", "rangeindex", "probe", movesCold},
	{"costmodel.scan_plans_us", "us", "lower", "costmodel", "probe", movesCold},
	{"costmodel.join_alt_ns_per_plan", "ns", "lower", "costmodel", "probe", movesCold},
	{"costmodel.recost_us_per_plan", "us", "lower", "costmodel", "probe", "nothing end to end yet: statistics drift has no workload"},

	{"plan.string_us_per_plan", "us", "lower", "plan", "probe", "api.poll_ms_p50, first_frontier_ms_p50 on warm_repeat"},
	{"plan.flatten_us_per_plan", "us", "lower", "plan", "probe", "sessions_per_s on restart_cycle (export path)"},

	{"core.new_optimizer_us", "us", "lower", "core", "probe", "first_frontier_ms_p50 on cold_distinct"},
	{"core.step_ms_r0", "ms", "lower", "core", "probe", "first_frontier_ms_* on cold_distinct; flat on warm_repeat"},
	{"core.step_ms_refine", "ms", "lower", "core", "probe", "time_to_target_ms_* on cold_distinct; api.poll_ms_tail on cold_distinct, interactive_drag"},
	{"core.regime_ms_relax", "ms", "lower", "core", "probe", "regime_ms_* on interactive_drag"},
	{"core.plans_generated", "count", "lower", "core", "probe", "server_cpu_ms_per_session on cold_distinct"},
	{"core.pairs_combined", "count", "lower", "core", "probe", "server_cpu_ms_per_session on cold_distinct"},
	{"core.dominance_checks", "count", "lower", "core", "probe", "server_cpu_ms_per_session on cold_distinct"},
	{"core.result_plans", "count", "lower", "core", "probe", "rss_mb, poll_kb_at_target"},
	{"core.candidate_plans", "count", "lower", "core", "probe", "after the tight regime of the drag series: rss_mb; regime_ms_p50 on interactive_drag (a dropped candidate must be regenerated)"},

	{"core.snapshot_export_us", "us", "lower", "core", "probe", "server_cpu_ms_per_session on cold_distinct"},
	{"core.restore_us", "us", "lower", "core", "probe", "first_frontier_ms_p50 on warm_repeat, restart_cycle"},
	{"core.remap_us", "us", "lower", "core", "probe", "nothing end to end yet: the isomorphic tier has no workload"},
	{"core.recost_us", "us", "lower", "core", "probe", "nothing end to end yet: statistics drift has no workload"},
	{"core.classify_drift_us", "us", "lower", "core", "probe", "nothing end to end yet: statistics drift has no workload"},

	{"snapcodec.encode_us", "us", "lower", "snapcodec", "probe", "server_cpu_ms_per_session on restart_cycle"},
	{"snapcodec.decode_us", "us", "lower", "snapcodec", "probe", "ready_ms on restart_cycle"},
	{"snapcodec.bytes_per_snapshot", "B", "lower", "snapcodec", "probe", "ready_ms on restart_cycle"},

	{"store.put_flush_ms", "ms", "lower", "store", "probe", "sessions_per_s and api.drain_ms_p50 on restart_cycle"},
	{"store.replay_ms", "ms", "lower", "store", "probe", "ready_ms on restart_cycle"},
	{"store.bytes_per_record", "B", "lower", "store", "probe", "ready_ms on restart_cycle"},
	{"store.persisted", "count", "lower", "store", "scrape", "zero outside restart_cycle"},
	{"store.loaded", "count", "higher", "store", "scrape", "ready_ms on restart_cycle (minimum over the boots)"},
	{"store.dropped", "count", "lower", "store", "scrape", "must stay zero"},
	{"store.write_errors", "count", "lower", "store", "scrape", "must stay zero"},
	{"store.live_mb", "MB", "lower", "store", "scrape", "ready_ms on restart_cycle"},
	{"store.append_ms_p50", "ms", "lower", "store", "scrape", "sessions_per_s on restart_cycle"},
	{"store.flush_ms_p50", "ms", "lower", "store", "scrape", "api.drain_ms_p50 on restart_cycle"},

	{"session.step_overhead_us", "us", "lower", "session", "probe", "time_to_target_ms_p50 on warm_repeat"},
	{"session.frontier_us", "us", "lower", "session", "probe", "api.poll_ms_p50 everywhere"},

	{"service.create_cold_us", "us", "lower", "service", "probe", "first_frontier_ms_p50 on cold_distinct"},
	{"service.create_exact_us", "us", "lower", "service", "probe", "first_frontier_ms_p50 on warm_repeat, restart_cycle"},
	{"service.create_iso_us", "us", "lower", "service", "probe", "nothing end to end yet: the isomorphic tier has no workload"},
	{"service.poll_us", "us", "lower", "service", "probe", "api.poll_ms_p50 everywhere"},
	{"service.cache_exact_hits", "count", "higher", "service", "scrape", "path proof: every create on warm_repeat"},
	{"service.cache_iso_hits", "count", "lower", "service", "scrape", "path proof: 0 everywhere"},
	{"service.cache_misses", "count", "lower", "service", "scrape", "path proof: 0 on warm_repeat; the new 3-table queries on restart_cycle"},
	{"service.cache_stale_hits", "count", "lower", "service", "scrape", "structural-tier hits: the new queries of restart_cycle after its first boot; 0 elsewhere"},
	{"service.drift_recosted", "count", "lower", "service", "scrape", "stale hits resolved by re-costing in place"},
	{"service.drift_resumed", "count", "lower", "service", "scrape", "stale hits resolved by resuming refinement"},
	{"service.warm_starts", "count", "higher", "service", "scrape", "path proof: 0 on cold_distinct and interactive_drag, every create on warm_repeat"},
	{"service.steps_total", "count", "lower", "service", "scrape", "server_cpu_ms_per_session"},
	{"service.steps_per_pop", "ratio", "higher", "service", "scrape", "time_to_target_ms_p50 on warm_repeat"},
	{"service.steals", "count", "lower", "service", "scrape", "first_frontier_ms_tail on cold_distinct"},
	{"service.preempts", "count", "lower", "service", "scrape", "regime_ms_tail on interactive_drag"},
	{"service.queue_wait_ms_p50", "ms", "lower", "service", "scrape", "regime_ms_tail on interactive_drag"},
	{"service.queue_wait_ms_tail", "ms", "lower", "service", "scrape", "first_frontier_ms_tail on cold_distinct"},
	{"service.first_frontier_server_ms_p50", "ms", "lower", "service", "client", "first_frontier_ms_p50 minus the polling delay"},

	{"api.create_ms_p50", "ms", "lower", "api", "client", "first_frontier_ms_p50 on warm_repeat"},
	{"api.poll_ms_p50", "ms", "lower", "api", "client", "one GET /sessions/{id} round trip, body read included: first_frontier_ms_p50, sessions_per_s on warm_repeat, restart_cycle"},
	{"api.poll_ms_tail", "ms", "lower", "api", "client", "on cold_distinct and interactive_drag a poll waits for the step holding the session mutex, so this is the step length"},
	{"api.bounds_ms_p50", "ms", "lower", "api", "client", "regime_ms_p50"},
	{"api.select_ms_p50", "ms", "lower", "api", "client", "sessions_per_s on warm_repeat"},
	{"api.delete_ms_p50", "ms", "lower", "api", "client", "sessions_per_s on warm_repeat"},
	{"api.polls_per_session", "count", "lower", "api", "client", "server_cpu_ms_per_session on warm_repeat"},
	{"api.poll_mb_total", "MB", "lower", "api", "client", "server_cpu_ms_per_session on warm_repeat"},
	{"api.poll_encode_us_per_kb", "us", "lower", "api", "probe", "api.poll_ms_p50, server_cpu_ms_per_session on warm_repeat; flat on cold_distinct"},
	{"api.drain_ms_p50", "ms", "lower", "api", "client", "sessions_per_s on restart_cycle"},
	{"api.metrics_scrape_ms", "ms", "lower", "api", "scrape", "nothing end to end: the cost of observing"},
	{"api.metrics_scrape_kb", "KB", "lower", "api", "scrape", "nothing end to end: the cost of observing"},

	{"proc.cpu_user_s", "s", "lower", "process", "scrape", "server_cpu_ms_per_session"},
	{"proc.cpu_sys_s", "s", "lower", "process", "scrape", "server_cpu_ms_per_session"},
	{"proc.gc_pause_ms_total", "ms", "lower", "process", "scrape", "api.poll_ms_tail, first_frontier_ms_tail"},
	{"proc.heap_mb", "MB", "lower", "process", "scrape", "rss_mb"},
	{"proc.peak_rss_mb", "MB", "lower", "process", "scrape", "VmHWM at the end of the timed phase (median over the boots); set by how one GC cycle fell, 20 % between runs"},

	{"budget.admit_share", "ratio", "lower", "budget", "scrape", "first_frontier_ms_p50 on warm_repeat"},
	{"budget.queue_wait_share", "ratio", "lower", "budget", "scrape", "first_frontier_ms_tail"},
	{"budget.steps_share", "ratio", "lower", "budget", "scrape", "time_to_target_ms_p50 on cold_distinct"},
	{"budget.export_share", "ratio", "lower", "budget", "scrape", "time_to_target_ms_p50 on cold_distinct"},
	{"budget.unattributed_share", "ratio", "lower", "budget", "scrape", "the part of create→target no span accounts for"},
	{"budget.client_overhead_ms", "ms", "lower", "budget", "scrape", "time_to_target_ms_p50 minus the server's create→converged"},

	{"client.regime_ms_tail", "ms", "lower", "client", "client", "an end-to-end observation without a bound: on cold_distinct and restart_cycle its percentile lands between drags that ran at once and drags that queued behind the other client's step (62 % spread)"},
	{"loadgen.late_ms_p50", "ms", "lower", "harness", "client", "none: if it grows, the client and not moqod is the bottleneck"},
}
