package service

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pareto"
	"repro/internal/query"
)

// isoServiceQueries returns two isomorphic queries over disjoint but
// statistically identical tables: the cross-shape warm-start scenario.
func isoServiceQueries(t *testing.T) (*query.Query, *query.Query) {
	t.Helper()
	mk := func(name string, rows float64, rates []float64, idx bool) catalog.Table {
		return catalog.Table{Name: name, Rows: rows, RowWidth: 120, HasIndex: idx, SamplingRates: rates}
	}
	// Sorted names assign IDs: d0=0 d1=1 f0=2 f1=3.
	cat := catalog.MustNew([]catalog.Table{
		mk("f0", 5e5, []float64{0.5, 0.75, 1}, true), mk("f1", 5e5, []float64{0.5, 0.75, 1}, true),
		mk("d0", 200, []float64{1}, false), mk("d1", 200, []float64{1}, false),
	})
	build := func(d, f int, name string) *query.Query {
		return query.MustNew(cat, []int{d, f},
			[]query.JoinEdge{{A: d, B: f, Selectivity: 1e-2}},
			query.WithName(name), query.WithFilter(f, 0.4))
	}
	qa, qb := build(0, 2, "even"), build(1, 3, "odd")
	if qa.Fingerprint() == qb.Fingerprint() {
		t.Fatal("test queries share the exact fingerprint; cross-shape path untested")
	}
	return qa, qb
}

// frontierSig renders a frontier's cost vectors order-independently.
func frontierSig(st Status) []string {
	var out []string
	for _, p := range st.Frontier {
		out = append(out, p.Cost.String())
	}
	sort.Strings(out)
	return out
}

// checkPublished checks that the frontier m's last step published is,
// pointer for pointer and in order, the skyline of the full root result
// set within the session's focus — what a recompute would publish
// (DESIGN.md D20). The caller holds m.mu or runs m's step.
func checkPublished(t *testing.T, m *managed) {
	t.Helper()
	s := m.sess
	if s.Resolution() < 0 {
		return // nothing published yet
	}
	want := pareto.Filter(slices.Clone(s.Optimizer().Results(s.Bounds(), s.Resolution())))
	if got := s.Frontier(); !slices.Equal(got, want) {
		t.Errorf("session %s (%v) r=%d: published %d plans, the full recompute %d",
			m.id, m.prov, s.Resolution(), len(got), len(want))
	}
}

// TestServiceIsomorphicWarmStart drives the full cross-shape path:
// converge one query, then create a session for an isomorphic query
// with a different exact fingerprint — it must warm-start through the
// canonical tier, converge to a cost-identical frontier, and the stats
// must attribute the hit to the isomorphic tier. Every session, the
// cold one, the iso-remapped and the exact-tier warm start, publishes
// at every step what a full recompute would (checked before each step
// through the fault hook, and after the last).
func TestServiceIsomorphicWarmStart(t *testing.T) {
	qa, qb := isoServiceQueries(t)
	cfg := testConfig(3)
	var svc *Service
	var checks atomic.Int64
	cfg.FaultHook = func(id string, _ int) {
		m, err := svc.lookup(id)
		if err != nil {
			t.Error(err)
			return
		}
		checkPublished(t, m)
		checks.Add(1)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	checkLast := func(id string) {
		t.Helper()
		m, err := svc.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		checkPublished(t, m)
		m.mu.Unlock()
	}

	ida, err := svc.Create(qa)
	if err != nil {
		t.Fatal(err)
	}
	sta, err := svc.WaitTarget(ida)
	if err != nil {
		t.Fatal(err)
	}
	if sta.WarmStarted {
		t.Fatal("first session unexpectedly warm-started")
	}
	checkLast(ida)
	if err := svc.Close(ida); err != nil {
		t.Fatal(err)
	}

	idb, err := svc.Create(qb)
	if err != nil {
		t.Fatal(err)
	}
	stb, err := svc.WaitTarget(idb)
	if err != nil {
		t.Fatal(err)
	}
	if !stb.WarmStarted {
		t.Error("isomorphic session did not warm-start")
	}
	checkLast(idb)
	ga, gb := frontierSig(sta), frontierSig(stb)
	if len(ga) == 0 || len(ga) != len(gb) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Errorf("isomorphic frontiers differ in cost: %s vs %s", ga[i], gb[i])
		}
	}
	// The restored frontier must carry qb's labels, not qa's.
	for _, p := range stb.Frontier {
		if !p.Tables.SubsetOf(qb.Tables()) {
			t.Errorf("frontier plan %v references tables outside %v", p, qb.Tables())
		}
	}
	if err := svc.Close(idb); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.WarmStarts != 1 || st.IsoWarmStarts != 1 {
		t.Errorf("warm starts = %d (iso %d), want 1 (1)", st.WarmStarts, st.IsoWarmStarts)
	}
	if st.Cache.IsoHits != 1 || st.Cache.ExactHits != 0 {
		t.Errorf("cache split = exact %d / iso %d, want 0/1", st.Cache.ExactHits, st.Cache.IsoHits)
	}
	if st.RemapTotal <= 0 {
		t.Error("remap time not accounted")
	}

	// A third session on qb's exact shape now hits the exact tier.
	idc, err := svc.Create(qb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitTarget(idc); err != nil {
		t.Fatal(err)
	}
	checkLast(idc)
	if err := svc.Close(idc); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Cache.ExactHits != 1 {
		t.Errorf("exact hits = %d after repeat of qb, want 1", st.Cache.ExactHits)
	}
	// Each session's steps after its first: r = 1..3, three apiece.
	if n := checks.Load(); n < 9 {
		t.Errorf("%d publications checked before a step, want at least 9", n)
	}
}
