package main

import "fmt"

// layerMetrics derives the client- and scrape-sourced per-layer metrics
// of a traced run. The probe-sourced ones are added by probeMetrics.
func layerMetrics(cfg runConfig, ph *phase, res *runResult) map[string]metricValue {
	out := map[string]metricValue{}
	put := func(name string, v float64, samples int) {
		out[name] = metricValue{Value: v, Unit: layerUnit(name), Samples: samples}
	}
	putTail := func(name string, v float64, samples, pct int) {
		out[name] = metricValue{Value: v, Unit: layerUnit(name), Samples: samples, Pct: pct}
	}
	completed := res.Counts["sessions_completed"]

	// client: spans around the HTTP calls.
	for _, route := range []string{"create", "poll", "bounds", "select", "delete"} {
		msv := ph.rec.RouteMS[route]
		put("api."+route+"_ms_p50", percentile(msv, 50), len(msv))
	}
	pollMS := ph.rec.RouteMS["poll"]
	putTail("api.poll_ms_tail", percentile(pollMS, cfg.W.Tail.Poll), len(pollMS), cfg.W.Tail.Poll)
	polls, serverFF, regimes := 0, []float64(nil), []float64(nil)
	for _, r := range ph.results {
		if r.Fail == "" {
			polls += r.Polls
			serverFF = append(serverFF, float64(r.ServerFFUs)/1000)
			regimes = append(regimes, r.RegimeMS...)
		}
	}
	put("api.polls_per_session", float64(polls)/float64(max(completed, 1)), completed)
	put("api.poll_mb_total", float64(ph.rec.PollBytes)/(1<<20), len(ph.rec.RouteMS["poll"]))
	put("api.drain_ms_p50", percentile(ph.drainMS, 50), len(ph.drainMS))
	put("service.first_frontier_server_ms_p50", percentile(serverFF, 50), len(serverFF))
	putTail("client.regime_ms_tail", percentile(regimes, cfg.W.Tail.Regime), len(regimes), cfg.W.Tail.Regime)
	put("loadgen.late_ms_p50", percentile(ph.rec.LateMS, 50), len(ph.rec.LateMS))
	put("proc.cpu_user_s", ph.cpu.UserS, 1)
	put("proc.cpu_sys_s", ph.cpu.SysS, 1)
	put("proc.peak_rss_mb", percentile(ph.peakRSS, 50), len(ph.peakRSS))

	// scrape: counters and spans the program already keeps, summed over
	// the workload's boots (store.loaded: the minimum over the boots).
	var (
		sum               statz
		steps, pops       uint64
		steals, preempts  uint64
		queueWait, gc     histogram
		appendH, flushH   histogram
		heapMB, liveMB    float64
		scrapeMS, scrapeK float64
		loadedMin         = ^uint64(0)
		budgets           []budget
		clientTarget      = map[string]float64{} // by boot/session id
		ok                = 0
	)
	for _, r := range ph.results {
		if r.Fail == "" {
			clientTarget[fmt.Sprint(r.Boot, "/", r.ID)] = r.TargetMS
		}
	}
	var overhead []float64
	for boot, s := range ph.scrapes {
		if !s.OK {
			continue
		}
		ok++
		sum.WarmStarts += s.Statz.WarmStarts
		sum.DriftRecosted += s.Statz.DriftRecosted
		sum.DriftResumed += s.Statz.DriftResumed
		sum.Cache.StaleHits += s.Statz.Cache.StaleHits
		sum.Cache.ExactHits += s.Statz.Cache.ExactHits
		sum.Cache.IsoHits += s.Statz.Cache.IsoHits
		sum.Cache.Misses += s.Statz.Cache.Misses
		sum.Steps += s.Statz.Steps
		sum.Store.Persisted += s.Statz.Store.Persisted
		sum.Store.Dropped += s.Statz.Store.Dropped
		sum.Store.WriteErrors += s.Statz.Store.WriteErrors
		loadedMin = min(loadedMin, s.Statz.Store.Loaded)
		liveMB = float64(s.Statz.Store.LiveBytes) / (1 << 20)
		for _, sh := range s.Statz.Shards {
			steps += sh.Steps
			pops += sh.Pops
			steals += sh.Steals
			preempts += sh.Preempts
		}
		queueWait = queueWait.plus(s.Metrics.Hists["moqod_queue_wait_seconds"])
		gc = gc.plus(s.Metrics.Hists["moqod_go_gc_pause_seconds"])
		appendH = appendH.plus(s.Metrics.Hists["moqod_store_append_seconds"])
		flushH = flushH.plus(s.Metrics.Hists["moqod_store_flush_seconds"])
		heapMB = s.Metrics.Values["moqod_go_heap_objects_bytes"] / (1 << 20)
		scrapeMS, scrapeK = s.MetricsMS, s.MetricsKB
		for _, t := range s.Traces {
			b, ok := sessionBudget(t)
			if !ok {
				continue
			}
			budgets = append(budgets, b)
			// Session IDs restart with every boot, so a trace is matched
			// against the sessions of the boot it was scraped from.
			if ms, ok := clientTarget[fmt.Sprint(boot, "/", t.ID)]; ok && b.ConvergedNS > 0 {
				overhead = append(overhead, ms-float64(b.ConvergedNS)/1e6)
			}
		}
	}
	if loadedMin == ^uint64(0) {
		loadedMin = 0
	}
	put("service.cache_exact_hits", float64(sum.Cache.ExactHits), ok)
	put("service.cache_iso_hits", float64(sum.Cache.IsoHits), ok)
	put("service.cache_misses", float64(sum.Cache.Misses), ok)
	put("service.cache_stale_hits", float64(sum.Cache.StaleHits), ok)
	put("service.drift_recosted", float64(sum.DriftRecosted), ok)
	put("service.drift_resumed", float64(sum.DriftResumed), ok)
	put("service.warm_starts", float64(sum.WarmStarts), ok)
	put("service.steps_total", float64(sum.Steps), ok)
	put("service.steps_per_pop", float64(steps)/float64(max(pops, 1)), int(pops))
	put("service.steals", float64(steals), ok)
	put("service.preempts", float64(preempts), ok)
	put("service.queue_wait_ms_p50", 1000*queueWait.quantile(0.5), int(queueWait.Count))
	putTail("service.queue_wait_ms_tail", 1000*queueWait.quantile(0.99), int(queueWait.Count), 99)
	put("store.persisted", float64(sum.Store.Persisted), ok)
	put("store.loaded", float64(loadedMin), ok)
	put("store.dropped", float64(sum.Store.Dropped), ok)
	put("store.write_errors", float64(sum.Store.WriteErrors), ok)
	put("store.live_mb", liveMB, ok)
	put("store.append_ms_p50", 1000*appendH.quantile(0.5), int(appendH.Count))
	put("store.flush_ms_p50", 1000*flushH.quantile(0.5), int(flushH.Count))
	put("api.metrics_scrape_ms", scrapeMS, ok)
	put("api.metrics_scrape_kb", scrapeK, ok)
	put("proc.gc_pause_ms_total", 1000*gc.Sum, int(gc.Count))
	put("proc.heap_mb", heapMB, ok)

	// budget: Σ span durations by kind / (create → end of first regime).
	var total float64
	byKind := map[string]float64{}
	for _, b := range budgets {
		total += float64(b.TotalNS)
		for k, ns := range b.ByKind {
			byKind[k] += float64(ns)
		}
	}
	share := func(kind string) float64 {
		if total == 0 {
			return 0
		}
		return byKind[kind] / total
	}
	attributed := 0.0
	for _, k := range budgetKinds {
		attributed += share(k)
	}
	put("budget.admit_share", share("admit"), len(budgets))
	put("budget.queue_wait_share", share("queue-wait"), len(budgets))
	put("budget.steps_share", share("steps"), len(budgets))
	put("budget.export_share", share("export"), len(budgets))
	put("budget.unattributed_share", 1-attributed, len(budgets))
	put("budget.client_overhead_ms", percentile(overhead, 50), len(overhead))
	return out
}

// layerUnit looks a per-layer metric's unit up in its declaration.
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("undeclared per-layer metric " + name)
}
