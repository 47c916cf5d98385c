package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/snapcodec"
	"repro/internal/store"
	wl "repro/internal/workload"
)

// probeQueries is how many of the workload's leading distinct queries the
// probes replay. Each costs about three cold optimizations; four keep a
// traced run inside the contract's time cap.
const probeQueries = 4

// probeAcc collects the probes' samples per metric name. Counts are
// averaged (they repeat exactly, so the mean does too); timings report
// their median over the probed queries.
type probeAcc map[string][]float64

func (a probeAcc) add(name string, v float64) { a[name] = append(a[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeMetrics replays the workload's first distinct queries in-process
// through each layer's public functions, in the order a session crosses
// the layers, one span per call, and stores the per-layer numbers in out.
// A probe that cannot run (an internal API refused the input) is reported
// on stderr and leaves its metrics at zero: per-layer numbers carry no
// bound, and the timed phase has already been measured.
func probeMetrics(cfg runConfig, blocks []wl.Block, tr *tracer, out map[string]metricValue) {
	acc := probeAcc{}
	root := tr.newID()
	start := time.Now()
	var (
		seen    = map[string]bool{}
		vectors []cost.Vector
		snaps   []probeSnap
	)
	for i := 0; len(seen) < cfg.ProbeQueries && i < 4096; i++ {
		spec := cfg.W.Script(cfg.Seed, i).Query
		if seen[spec.key()] {
			continue
		}
		seen[spec.key()] = true
		ps, vs, err := probeQuery(spec, blocks, tr, root, acc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe of %s: %v\n", spec.key(), err)
			continue
		}
		snaps = append(snaps, ps)
		vectors = append(vectors, vs...)
	}
	probeDominance(vectors, tr, root, acc)
	probeRangeIndex(vectors, tr, root, acc)
	if err := probeStore(cfg.WorkDir, snaps, tr, root, acc); err != nil {
		fmt.Fprintf(os.Stderr, "bench: store probe: %v\n", err)
	}
	if err := probeService(snaps, blocks, tr, root, acc); err != nil {
		fmt.Fprintf(os.Stderr, "bench: service probe: %v\n", err)
	}
	tr.add(root, 0, "probe", "probes", "", start, time.Now())

	for _, d := range perLayer {
		if d.Source != "probe" {
			continue
		}
		v := percentile(acc[d.Name], 50)
		if d.Unit == "count" || d.Unit == "B" {
			v = mean(acc[d.Name])
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit, Samples: len(acc[d.Name])}
	}
}

// probeSnap is what later probes reuse of one probed query.
type probeSnap struct {
	q0, q1                *query.Query // two isomorphic labelings of the query
	fp, canonFp, structFp string
	perm                  []int
	snap                  *core.Snapshot
}

// probeQuery walks one query through query → core → session → plan →
// snapshot → snapcodec, then through a series of relaxed bounds regimes.
func probeQuery(spec querySpec, blocks []wl.Block, tr *tracer, root int, acc probeAcc) (probeSnap, []cost.Vector, error) {
	var ps probeSnap
	id := tr.newID()
	start := time.Now()
	defer func() { tr.add(id, root, "probe", "query "+spec.key(), "", start, time.Now()) }()
	cfg := optConfig()

	// query: build and the three digests of Service.Create.
	var q *query.Query
	var err error
	acc.add("query.build_us", us(tr.timed(id, "query", "build", func() { q, err = buildQuery(spec, blocks) })))
	if err != nil {
		return ps, nil, err
	}
	acc.add("query.fingerprint_us", us(tr.timed(id, "query", "Fingerprint", func() { q.Fingerprint() })))
	acc.add("query.canonical_fp_us", us(tr.timed(id, "query", "CanonicalFingerprint", func() { q.CanonicalFingerprint() })))
	acc.add("query.structural_fp_us", us(tr.timed(id, "query", "StructuralFingerprint", func() { q.StructuralFingerprint() })))

	// Two isomorphic labelings over an alias catalog: the session runs on
	// the first, the remap and the isomorphic create target the second.
	vars, err := wl.IsoVariants(wl.Block{Name: "probe", Query: q}, 2, 2)
	if err != nil {
		return ps, nil, err
	}
	ps.q0, ps.q1 = vars[0].Query, vars[1].Query
	ps.fp, ps.structFp = ps.q0.Fingerprint(), ps.q0.StructuralFingerprint()
	ps.canonFp, ps.perm = ps.q0.CanonicalFingerprint()

	// costmodel: scan alternatives per table, join alternatives per edge,
	// and re-costing of both.
	scans := map[int][]*plan.Node{}
	var tables []int
	ps.q0.Tables().ForEach(func(t int) { tables = append(tables, t) })
	d := tr.timed(id, "costmodel", "AppendScanPlans", func() {
		for _, t := range tables {
			scans[t] = model.AppendScanPlans(nil, ps.q0, t, nil)
		}
	})
	acc.add("costmodel.scan_plans_us", us(d)/float64(len(tables)))
	var joins []*plan.Node
	d = tr.timed(id, "costmodel", "AppendJoinAlternatives", func() {
		for _, e := range ps.q0.Edges() {
			for _, l := range scans[e.A] {
				for _, r := range scans[e.B] {
					joins = model.AppendJoinAlternatives(joins, ps.q0, l, r, nil)
				}
			}
		}
	})
	if len(joins) > 0 {
		acc.add("costmodel.join_alt_ns_per_plan", float64(d.Nanoseconds())/float64(len(joins)))
	}
	recosted := 0
	d = tr.timed(id, "costmodel", "Recost", func() {
		for _, t := range tables {
			for _, n := range scans[t] {
				if err = model.RecostScan(ps.q0, n); err != nil {
					return
				}
				recosted++
			}
		}
		for _, n := range joins {
			if err = model.RecostJoin(ps.q0, n); err != nil {
				return
			}
			recosted++
		}
	})
	if err != nil {
		return ps, nil, err
	}
	acc.add("costmodel.recost_us_per_plan", us(d)/float64(max(recosted, 1)))

	// core through session: one regime from resolution 0 to the target.
	var opt *core.Optimizer
	acc.add("core.new_optimizer_us", us(tr.timed(id, "core", "NewOptimizer", func() { opt, err = core.NewOptimizer(ps.q0, cfg) })))
	if err != nil {
		return ps, nil, err
	}
	sess, err := session.NewWithOptimizer(opt, nil)
	if err != nil {
		return ps, nil, err
	}
	var refine, overhead float64
	for r := 0; r < optLevels; r++ {
		step := tr.timed(id, "session", fmt.Sprintf("Step r=%d", r), func() { sess.Step() })
		inner := sess.Records()[r].Duration
		overhead += us(step - inner)
		if r == 0 {
			acc.add("core.step_ms_r0", ms(inner))
		} else {
			refine += ms(inner)
		}
	}
	acc.add("core.step_ms_refine", refine/float64(optLevels-1))
	acc.add("session.step_overhead_us", overhead/optLevels)
	st := opt.Stats()
	acc.add("core.plans_generated", float64(st.PlansGenerated))
	acc.add("core.pairs_combined", float64(st.PairsCombined))
	acc.add("core.dominance_checks", float64(st.DominanceChecks))
	acc.add("core.result_plans", float64(opt.ResultCount()))

	var frontier []*plan.Node
	acc.add("session.frontier_us", us(tr.timed(id, "session", "Frontier", func() { frontier = sess.Frontier() })))
	if len(frontier) == 0 {
		return ps, nil, fmt.Errorf("empty frontier")
	}
	d = tr.timed(id, "plan", "String", func() {
		for _, p := range frontier {
			_ = p.String()
		}
	})
	acc.add("plan.string_us_per_plan", us(d)/float64(len(frontier)))
	d = tr.timed(id, "plan", "Flatten", func() {
		fl := plan.NewFlattener()
		for _, p := range frontier {
			fl.Add(p)
		}
		fl.Nodes()
	})
	acc.add("plan.flatten_us_per_plan", us(d)/float64(len(frontier)))
	vectors := make([]cost.Vector, len(frontier))
	for i, p := range frontier {
		vectors[i] = p.Cost.Clone()
	}

	// snapshot: export, wire round trip, restore, remap, re-cost.
	acc.add("core.snapshot_export_us", us(tr.timed(id, "core", "Snapshot", func() { ps.snap = opt.Snapshot() })))
	var wire []byte
	acc.add("snapcodec.encode_us", us(tr.timed(id, "snapcodec", "Encode", func() { wire, err = snapcodec.Encode(nil, ps.snap) })))
	if err != nil {
		return ps, nil, err
	}
	acc.add("snapcodec.bytes_per_snapshot", float64(len(wire)))
	acc.add("snapcodec.decode_us", us(tr.timed(id, "snapcodec", "Decode", func() { _, err = snapcodec.Decode(wire) })))
	if err != nil {
		return ps, nil, err
	}
	acc.add("core.restore_us", us(tr.timed(id, "core", "NewOptimizerFromSnapshot", func() {
		_, err = core.NewOptimizerFromSnapshot(ps.q0, cfg, ps.snap)
	})))
	if err != nil {
		return ps, nil, err
	}
	_, perm1 := ps.q1.CanonicalFingerprint()
	perm, err := query.ComposeRemap(ps.perm, perm1)
	if err != nil {
		return ps, nil, err
	}
	acc.add("core.remap_us", us(tr.timed(id, "core", "Snapshot.Remap", func() { _, err = ps.snap.Remap(perm) })))
	if err != nil {
		return ps, nil, err
	}
	acc.add("core.recost_us", us(tr.timed(id, "core", "Snapshot.Recost", func() { _, err = ps.snap.Recost(ps.q0, cfg) })))
	if err != nil {
		return ps, nil, err
	}
	acc.add("core.classify_drift_us", us(tr.timed(id, "core", "ClassifyDrift", func() { ps.snap.ClassifyDrift(ps.q0, 0) })))

	// The interactive series, as interactive_drag plays it: a second
	// optimizer gets one unbounded step, then tight bounds taken from that
	// first frontier, then a full regime after each relax.
	drag, err := core.NewOptimizer(ps.q0, cfg)
	if err != nil {
		return ps, nil, err
	}
	drag.Optimize(nil, 0)
	first := drag.Results(nil, 0)
	if len(first) == 0 {
		return ps, nil, fmt.Errorf("empty first frontier")
	}
	firstCosts := make([]cost.Vector, len(first))
	for i, p := range first {
		firstCosts[i] = p.Cost
	}
	regime := func(b cost.Vector) {
		for r := 0; r < optLevels; r++ {
			drag.Optimize(b, r)
		}
	}
	b := medianCost(firstCosts).Scale(tightScale)
	tr.timed(id, "core", "Optimize tight", func() { regime(b) })
	acc.add("core.candidate_plans", float64(drag.CandidateCount()))
	var relax float64
	for k := 0; k < interactiveRegimes-2; k++ {
		b = b.Scale(relaxScale)
		relax += ms(tr.timed(id, "core", fmt.Sprintf("Optimize relax %d", k+1), func() { regime(b) }))
	}
	acc.add("core.regime_ms_relax", relax/float64(interactiveRegimes-2))
	return ps, vectors, nil
}

// dominanceSink keeps the compiler from discarding the probed calls.
var dominanceSink int

// probeDominance times 10⁶ dominance checks over the harvested vectors.
func probeDominance(vs []cost.Vector, tr *tracer, root int, acc probeAcc) {
	if len(vs) < 2 {
		return
	}
	const calls = 1_000_000
	d := tr.timed(root, "cost", "Dominates", func() {
		n := 0
		for i := 0; i < calls/2; i++ {
			a, b := vs[i%len(vs)], vs[(i*7+1)%len(vs)]
			if a.Dominates(b) {
				n++
			}
			if a.DominatesScaled(b, optTarget) {
				n++
			}
		}
		dominanceSink += n
	})
	acc.add("cost.dominates_ns", float64(d.Nanoseconds())/calls)
}

// probeRangeIndex times inserts and an unbounded range query over the
// harvested vectors at the run's cell base and resolution levels.
func probeRangeIndex(vs []cost.Vector, tr *tracer, root int, acc probeAcc) {
	if len(vs) == 0 {
		return
	}
	const rounds = 20
	dim := costDim
	var insert, queryD time.Duration
	for round := 0; round < rounds; round++ {
		ix, err := rangeindex.New(dim, optLevels-1, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: rangeindex probe: %v\n", err)
			return
		}
		insert += tr.timed(root, "rangeindex", "Insert", func() {
			for i, v := range vs {
				ix.Insert(rangeindex.Entry{Cost: v, Resolution: i % optLevels, Epoch: 1})
			}
		})
		queryD += tr.timed(root, "rangeindex", "Query", func() {
			n := 0
			ix.Query(cost.Unbounded(dim), optLevels-1, 0, func(rangeindex.Entry) bool { n++; return true })
			dominanceSink += n
		})
	}
	n := float64(rounds * len(vs))
	acc.add("rangeindex.insert_ns", float64(insert.Nanoseconds())/n)
	acc.add("rangeindex.query_ns_per_entry", float64(queryD.Nanoseconds())/n)
}

// probeStore writes the probe snapshots through a store in a fresh
// directory, flushes, and replays them after a reopen.
func probeStore(workDir string, snaps []probeSnap, tr *tracer, root int, acc probeAcc) error {
	if len(snaps) == 0 {
		return nil
	}
	dir, err := os.MkdirTemp(workDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	echo, err := core.ConfigFingerprint(optConfig())
	if err != nil {
		return err
	}
	opts := store.Options{Dir: dir, CfgEcho: echo}
	var st *store.Store
	d := tr.timed(root, "store", "Open+PutBlocking+Flush+Close", func() {
		if st, err = store.Open(opts); err != nil {
			return
		}
		for _, s := range snaps {
			st.PutBlocking(s.fp, s.canonFp, s.structFp, s.perm, s.snap)
		}
		if err = st.Flush(); err != nil {
			return
		}
		err = st.Close()
	})
	if err != nil {
		return err
	}
	acc.add("store.put_flush_ms", ms(d))
	replayed := 0
	d = tr.timed(root, "store", "Open+Replay", func() {
		if st, err = store.Open(opts); err != nil {
			return
		}
		err = st.Replay(func(store.Record) bool { replayed++; return true })
	})
	if err != nil {
		return err
	}
	defer st.Close()
	acc.add("store.replay_ms", ms(d))
	if stats := st.Stats(); stats.LiveRecords > 0 {
		acc.add("store.bytes_per_record", float64(stats.LiveBytes)/float64(stats.LiveRecords))
	}
	if replayed != len(snaps) {
		return fmt.Errorf("replayed %d of %d records", replayed, len(snaps))
	}
	return nil
}

// probeService times Create on each cache outcome and Poll in an
// in-process service, and the HTTP handler's share of a poll under
// httptest. The cold create runs on a cache-less service — with the cache
// on, a second query of the same shape would take the structural tier —
// and every timed create is checked to have taken the tier it is named
// after.
func probeService(snaps []probeSnap, blocks []wl.Block, tr *tracer, root int, acc probeAcc) error {
	if len(snaps) == 0 {
		return nil
	}
	scfg := service.Config{Opt: optConfig(), Workers: 1, Shards: 1, IdleTimeout: -1}
	svc, err := service.New(scfg)
	if err != nil {
		return err
	}
	defer svc.Shutdown()
	scfg.CacheCapacity = -1
	cold, err := service.New(scfg)
	if err != nil {
		return err
	}
	defer cold.Shutdown()
	a := api.New(api.Config{Seed: 1, Dim: costDim})
	a.Ready(svc, blocks)
	mux := a.Mux()

	// converge creates a session, times the Create under name (untimed
	// when name is empty), waits for the target and checks the provenance.
	converge := func(on *service.Service, name, provenance string, q *query.Query) (string, error) {
		var id string
		var err error
		d := tr.timed(root, "service", "Create "+provenance, func() { id, err = on.Create(q) })
		if err != nil {
			return "", err
		}
		if name != "" {
			acc.add(name, us(d))
		}
		st, err := on.WaitTarget(id)
		if err != nil || st.State != service.AtTarget {
			return "", fmt.Errorf("create %s: wait target: state %v, err %v", provenance, st.State, err)
		}
		if name != "" && st.Provenance != provenance {
			return "", fmt.Errorf("%s measured a create of provenance %q", name, st.Provenance)
		}
		return id, nil
	}
	for _, s := range snaps {
		id, err := converge(cold, "service.create_cold_us", "cold", s.q0)
		if err != nil {
			return err
		}
		if err := cold.Close(id); err != nil {
			return err
		}
		// Prime the cache with the query's first labeling.
		if id, err = converge(svc, "", "prime", s.q0); err != nil {
			return err
		}
		if err := svc.Close(id); err != nil {
			return err
		}
		if id, err = converge(svc, "service.create_exact_us", "exact", s.q0); err != nil {
			return err
		}
		poll := tr.timed(root, "service", "Poll", func() { _, err = svc.Poll(id) })
		if err != nil {
			return err
		}
		acc.add("service.poll_us", us(poll))
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/sessions/"+id, nil)
		handler := tr.timed(root, "api", "handlePoll", func() { mux.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			return fmt.Errorf("poll handler: status %d", rec.Code)
		}
		acc.add("api.poll_encode_us_per_kb", us(handler-poll)/(float64(rec.Body.Len())/1024))
		if err := svc.Close(id); err != nil {
			return err
		}
		if id, err = converge(svc, "service.create_iso_us", "iso", s.q1); err != nil {
			return err
		}
		if err := svc.Close(id); err != nil {
			return err
		}
	}
	return nil
}
