package service

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceKinds collects the span-kind strings of a trace in order.
func traceKinds(d trace.Data) []string {
	ks := make([]string, len(d.Spans))
	for i, sp := range d.Spans {
		ks[i] = sp.Kind
	}
	return ks
}

func requireKinds(t *testing.T, d trace.Data, want ...string) {
	t.Helper()
	have := map[string]bool{}
	for _, sp := range d.Spans {
		have[sp.Kind] = true
	}
	for _, k := range want {
		if !have[k] {
			t.Errorf("trace %s missing %q span: %v", d.ID, k, traceKinds(d))
		}
	}
}

// TestTraceLifecycle drives one session end to end and checks the
// lifecycle spans land where DESIGN.md D13 says they do: admission,
// queue wait, batched steps, first frontier and convergence while live,
// the terminal span plus archival once finished.
func TestTraceLifecycle(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	blk, _ := workload.Find(blocks, "Q4")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitState(t, svc, id, AtTarget)

	live, err := svc.SessionTrace(id)
	if err != nil {
		t.Fatalf("live trace: %v", err)
	}
	if live.ID != id {
		t.Errorf("trace ID = %q, want %q", live.ID, id)
	}
	requireKinds(t, live, "admit", "queue-wait", "steps", "first-frontier", "converged")
	if live.Spans[0].Kind != "admit" {
		t.Errorf("first span = %q, want admit", live.Spans[0].Kind)
	}
	var stepSpans, steps int64
	for _, sp := range live.Spans {
		if sp.Kind == "steps" {
			stepSpans++
			steps += sp.N
		}
		if sp.AtNS < 0 {
			t.Errorf("span %s has negative offset %d", sp.Kind, sp.AtNS)
		}
	}
	if steps != int64(st.Steps) {
		t.Errorf("steps spans account for %d steps, session ran %d", steps, st.Steps)
	}
	if stepSpans > int64(st.Steps) {
		t.Errorf("%d batch spans for %d steps — spans must be per pop, not per step", stepSpans, st.Steps)
	}

	if _, err := svc.Select(id, 0, st.Steps); err != nil {
		t.Fatal(err)
	}
	// The session is gone from the registry; the trace must survive in
	// the archive with the terminal span appended.
	archived, err := svc.SessionTrace(id)
	if err != nil {
		t.Fatalf("archived trace: %v", err)
	}
	requireKinds(t, archived, "admit", "steps", "converged", "selected")
	if last := archived.Spans[len(archived.Spans)-1].Kind; last != "selected" {
		t.Errorf("terminal span = %q, want selected", last)
	}
	recent := svc.RecentTraces(0)
	if len(recent) != 1 || recent[0].ID != id {
		t.Errorf("RecentTraces = %v, want just %s", recent, id)
	}
	if _, err := svc.SessionTrace("no-such-session"); err == nil {
		t.Error("SessionTrace of unknown id should error")
	}

	// Histograms fed on the same paths must have samples by now.
	obs := svc.Observability()
	for name, h := range map[string]*metrics.Histogram{
		"first-frontier": obs.FirstFrontier,
		"queue-wait":     obs.QueueWait,
		"quantum-steps":  obs.QuantumSteps,
		"end-to-end":     obs.EndToEnd,
	} {
		if h.Snapshot().Count == 0 {
			t.Errorf("%s histogram empty after a full session", name)
		}
	}
}

// TestStepsSpanCoversLastStep pins the budget property the bench's
// steps_share relies on: every step a session ran lies inside a steps
// span, its last one included — a span ends no earlier than its last
// step's start plus the optimizer time the session recorded for it, so
// the spans add up to at least the recorded optimizer time — and the
// converged span marks where the last one ends.
func TestStepsSpanCoversLastStep(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, svc, id, AtTarget)
	m, err := svc.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	records := m.sess.Records()
	m.mu.Unlock()
	d, err := svc.SessionTrace(id)
	if err != nil {
		t.Fatal(err)
	}

	var spans, curve []trace.SpanData
	var spanTotal, recorded, converged int64
	for _, sp := range d.Spans {
		switch sp.Kind {
		case "steps":
			spans = append(spans, sp)
			spanTotal += sp.DurNS
		case "curve":
			curve = append(curve, sp) // one per step, stamped with its start
		case "converged":
			converged = sp.AtNS
		}
	}
	if last := spans[len(spans)-1]; converged != last.AtNS+last.DurNS {
		t.Errorf("converged at %d ns, the last steps span ends at %d ns", converged, last.AtNS+last.DurNS)
	}
	if len(curve) != len(records) {
		t.Fatalf("%d curve samples for %d steps", len(curve), len(records))
	}
	for k, rec := range records {
		recorded += int64(rec.Duration)
		start, end := curve[k].AtNS, curve[k].AtNS+int64(rec.Duration)
		covered := false
		for _, sp := range spans {
			if sp.AtNS <= start && end <= sp.AtNS+sp.DurNS {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("step %d [%d, %d] ns lies in no steps span %v", k+1, start, end, spans)
		}
	}
	if spanTotal < recorded {
		t.Errorf("steps spans total %d ns, less than the %d ns the steps recorded", spanTotal, recorded)
	}
}

// TestObserveStepPathAllocFree pins the PR's hard constraint: the exact
// recording sequence runSteps performs per step — starvation
// bookkeeping, histogram records, ring-buffer span append —
// allocates nothing. Any allocation here multiplies by every step of
// every session (compare TestPruneAllocsSteadyState in core).
func TestObserveStepPathAllocFree(t *testing.T) {
	obs := newObservability(false, false)
	obs.StepGap.EnableExemplars(int64(time.Millisecond))
	obs.FirstFrontier.EnableExemplars(0)
	m := &managed{id: "alloc-probe", created: time.Now()}
	m.trace = trace.New(m.id, m.created)
	m.enqueuedNS.Store(time.Now().UnixNano())
	if allocs := testing.AllocsPerRun(1000, func() {
		m.mu.Lock()
		now := time.Now()
		if enq := m.enqueuedNS.Swap(0); enq != 0 {
			if wait := now.UnixNano() - enq; wait > 0 {
				obs.QueueWait.Observe(wait)
				m.trace.AppendAt(trace.KindQueueWait,
					now.Sub(m.created)-time.Duration(wait), time.Duration(wait), 1)
			}
		}
		if gap := m.noteStep(now); gap > 0 {
			obs.StepGap.ObserveExemplar(int64(gap), m.id)
		}
		start := now.Sub(m.created)
		obs.QuantumSteps.Observe(1)
		m.trace.AppendAt(trace.KindSteps, start, 0, 1)
		// Convergence-curve sample: the frontier scalarization and packed
		// resolution|size ride the same 32-byte span as every other kind.
		m.trace.AppendAt(trace.KindCurve, start,
			trace.PackCurveScalar(42.5), trace.PackCurveN(3, 17))
		obs.FirstFrontier.ObserveExemplar(int64(time.Millisecond), m.id)
		m.mu.Unlock()
	}); allocs != 0 {
		t.Errorf("step-path observation allocates %.2f per step, want 0", allocs)
	}
}

// TestSlowSessionHook checks the threshold hook fires exactly once per
// terminal transition, outside the session lock, with the full trace.
func TestSlowSessionHook(t *testing.T) {
	var mu sync.Mutex
	var calls []trace.Data
	cfg := testConfig(3)
	cfg.SlowSession = time.Nanosecond // every session is "slow"
	cfg.SlowSessionLog = func(total time.Duration, d trace.Data) {
		if total <= 0 {
			t.Errorf("slow hook total = %v", total)
		}
		mu.Lock()
		calls = append(calls, d)
		mu.Unlock()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	blocks := workload.MustTPCHBlocks(1)
	blk, _ := workload.Find(blocks, "Q12")
	id, err := svc.Create(blk.Query)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, svc, id, AtTarget)
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("slow hook fired %d times, want 1", len(calls))
	}
	d := calls[0]
	if d.ID != id || len(d.Spans) == 0 {
		t.Fatalf("slow hook got trace %q with %d spans", d.ID, len(d.Spans))
	}
	requireKinds(t, d, "admit", "closed")
	if !strings.Contains(d.Format(), "closed") {
		t.Errorf("Format() missing terminal span: %s", d.Format())
	}
}

// TestStatsJSONDurations pins the satellite fix: duration fields
// serialize under _Ns-suffixed keys so /statz consumers can't mistake
// raw nanosecond counts for milliseconds or seconds.
func TestStatsJSONDurations(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	b, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"RemapTotalNs"`, `"StepGapP99Ns"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("Stats JSON missing %s: %s", key, b)
		}
	}
	for _, stale := range []string{`"RemapTotal"`, `"StepGapP99"`} {
		if strings.Contains(string(b), stale+":") {
			t.Errorf("Stats JSON still has raw-ns key %s: %s", stale, b)
		}
	}
}

// TestStatsScratchReuse drives sessions, then checks repeated Stats
// calls settle into zero steady-state allocation for the starvation
// percentile (scratch slices are reused, sort is in-place).
func TestStatsScratchReuse(t *testing.T) {
	svc, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	blocks := workload.MustTPCHBlocks(1)
	for _, name := range []string{"Q4", "Q12", "Q13"} {
		blk, _ := workload.Find(blocks, name)
		id, err := svc.Create(blk.Query)
		if err != nil {
			t.Fatal(err)
		}
		awaitState(t, svc, id, AtTarget)
		if err := svc.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	svc.Stats() // grow the scratch to steady state
	// The starvation-audit path — gap gathering, in-place sort,
	// percentile — must be alloc-free once the scratch has grown.
	if allocs := testing.AllocsPerRun(100, func() {
		svc.statsMu.Lock()
		gaps := svc.mgr.appendGaps(svc.gapScratch[:0])
		percentileDur(gaps, 0.99)
		svc.gapScratch = gaps
		svc.statsMu.Unlock()
	}); allocs > 0 {
		t.Errorf("starvation audit allocates %.2f per Stats at steady state, want 0", allocs)
	}
	// Full Stats only allocates the result's one-element Shards slice.
	if allocs := testing.AllocsPerRun(100, func() {
		svc.Stats()
	}); allocs > 2 {
		t.Errorf("Stats allocates %.2f per call, want <= 2 (the returned Shards slice)", allocs)
	}
}

// TestScrapeDoesNotWaitForTheWriter: with the store's writer parked
// inside an fsync — holding the store mutex, as it does through every
// append, sync and compaction — a render of the registry, every store
// sample included, completes and reads the counters as they stand.
func TestScrapeDoesNotWaitForTheWriter(t *testing.T) {
	snap, _ := encodedSnapshot(t, testConfig(3).Opt, "Q4")
	inj := faultfs.NewInjector(nil)
	svc := startLife(t, t.TempDir(), func(cfg *Config) { cfg.StoreOptions.FS = inj }).svc
	defer svc.Shutdown()
	svc.store.PutBlocking("fpA", "canonA", "structA", []int{1, 0}, snap)
	if err := svc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	inj.SetScript(func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
		if op == faultfs.OpSync {
			close(entered)
			<-release
		}
		return faultfs.Fault{}
	})
	flushed := make(chan error, 1)
	go func() { flushed <- svc.store.Flush() }()
	<-entered
	inj.SetScript(nil)

	rendered := make(chan string, 1)
	go func() {
		var b strings.Builder
		_ = svc.Registry().WriteText(&b)
		rendered <- b.String()
	}()
	select {
	case text := <-rendered:
		// Two flushes: the first one's, and the parked one's, counted
		// before its fsync.
		for _, want := range []string{"moqod_store_persisted_total 1\n", "moqod_store_flushes_total 2\n", "moqod_store_degraded 0\n"} {
			if !strings.Contains(text, want) {
				t.Errorf("the render beside a parked writer has no line %q", want)
			}
		}
	case <-time.After(30 * time.Second):
		t.Error("rendering the registry waited for the store mutex the parked fsync holds")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}
