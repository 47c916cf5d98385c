package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
	"repro/internal/workload"
)

func snapshotTestQuery(t *testing.T) (*query.Query, Config) {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	if !ok {
		t.Fatal("missing block Q3")
	}
	return blk.Query, Config{
		Model:            costmodel.Default(),
		ResolutionLevels: 4,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
}

// resultSignatures renders an optimizer's final result set order-
// independently for equality checks.
func resultSignatures(o *Optimizer, b cost.Vector, r int) []string {
	var out []string
	for _, p := range o.Results(b, r) {
		out = append(out, p.Signature())
	}
	sort.Strings(out)
	return out
}

func sameSignatures(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotBeforeFirstOptimizeIsNil(t *testing.T) {
	q, cfg := snapshotTestQuery(t)
	if s := MustNewOptimizer(q, cfg).Snapshot(); s != nil {
		t.Fatal("snapshot of an uninitialized optimizer is not nil")
	}
}

// TestSnapshotRoundTrip verifies that a restored optimizer exposes the
// same result set and continues an invocation series exactly like the
// source would have.
func TestSnapshotRoundTrip(t *testing.T) {
	q, cfg := snapshotTestQuery(t)
	src := MustNewOptimizer(q, cfg)
	for r := 0; r <= 2; r++ {
		src.Optimize(nil, r)
	}
	snap := src.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot after optimization")
	}
	if snap.PlanCount() == 0 {
		t.Fatal("snapshot holds no plans")
	}

	restored, err := NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSignatures(resultSignatures(src, nil, 2), resultSignatures(restored, nil, 2)) {
		t.Error("restored result set differs from source")
	}

	// Continue both with the same focus series: tighten bounds, then
	// refine to the maximum. The restored optimizer must stay in
	// lockstep with the source.
	frontier := src.Results(nil, 2)
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	tight := frontier[0].Cost.Scale(2)
	for _, o := range []*Optimizer{src, restored} {
		for r := 0; r <= cfg.MaxResolution(); r++ {
			o.Optimize(tight, r)
		}
	}
	if !sameSignatures(resultSignatures(src, tight, cfg.MaxResolution()),
		resultSignatures(restored, tight, cfg.MaxResolution())) {
		t.Error("restored optimizer diverged from source after continued optimization")
	}
}

// TestSnapshotSkipsRegeneration verifies the warm start actually avoids
// rebuilding plans: finishing a restored series generates zero new plan
// nodes when nothing changed.
func TestSnapshotSkipsRegeneration(t *testing.T) {
	q, cfg := snapshotTestQuery(t)
	src := MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
	}
	restored, err := NewOptimizerFromSnapshot(q, cfg, src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= cfg.MaxResolution(); r++ {
		restored.Optimize(nil, r)
	}
	if n := restored.Stats().PlansGenerated; n != 0 {
		t.Errorf("restored optimizer regenerated %d plans, want 0", n)
	}
	if !sameSignatures(resultSignatures(src, nil, cfg.MaxResolution()),
		resultSignatures(restored, nil, cfg.MaxResolution())) {
		t.Error("restored result set differs from source")
	}
}

// TestSnapshotDetachesNodes documents the retention contract
// (DESIGN.md D8): the snapshot deep-copies reachable plan nodes off
// the source arena — chunk-granular arena retention must not leak into
// the warm-start cache — while preserving IDs, costs, plan structure
// and sub-plan sharing.
func TestSnapshotDetachesNodes(t *testing.T) {
	q, cfg := snapshotTestQuery(t)
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0)
	restored, err := NewOptimizerFromSnapshot(q, cfg, src.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	srcByID := map[uint32]*plan.Node{}
	for _, p := range src.Results(nil, 0) {
		srcByID[p.ID()] = p
	}
	seen := map[*plan.Node]bool{}
	var walk func(p *plan.Node)
	walk = func(p *plan.Node) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		walk(p.Left)
		walk(p.Right)
	}
	for _, p := range restored.Results(nil, 0) {
		orig, ok := srcByID[p.ID()]
		if !ok {
			t.Fatalf("restored plan %v has unknown ID %d", p, p.ID())
		}
		if orig == p {
			t.Fatalf("restored plan %v shares the source arena node, want detached copy", p)
		}
		if orig.Signature() != p.Signature() || !orig.Cost.Equal(p.Cost) {
			t.Fatalf("detached copy diverged: %v vs %v", p, orig)
		}
		walk(p)
	}
	// Sub-plan sharing is preserved: the restored plan-set must not
	// hold more distinct nodes than the source generated IDs for.
	if len(seen) > int(src.arena.NextID()) {
		t.Fatalf("detachment duplicated nodes: %d distinct, %d allocated", len(seen), src.arena.NextID())
	}
}

func TestSnapshotConfigMismatch(t *testing.T) {
	q, cfg := snapshotTestQuery(t)
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0)
	snap := src.Snapshot()

	for name, mutate := range map[string]func(*Config){
		"levels":   func(c *Config) { c.ResolutionLevels++ },
		"target":   func(c *Config) { c.TargetPrecision = 1.2 },
		"step":     func(c *Config) { c.PrecisionStep = 0.9 },
		"ablation": func(c *Config) { c.PruneAgainstAll = true },
		"model":    func(c *Config) { c.Model = costmodel.MustNew(c.Model.Space(), altParams()) },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := NewOptimizerFromSnapshot(q, bad, snap); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// TestConfigEchoFormat pins the configuration echo stores compare: the
// string cfgFingerprint assembles from the model's echo is the one
// fmt.Sprintf rendered before the model rendered its part once, for
// every field that enters it; and cfgMatches agrees with comparing it.
func TestConfigEchoFormat(t *testing.T) {
	base := defaultConfig()
	configs := map[string]Config{"default": base}
	for name, mutate := range map[string]func(*Config){
		"levels":   func(c *Config) { c.ResolutionLevels = 11 },
		"target":   func(c *Config) { c.TargetPrecision = 1.0000001 },
		"step":     func(c *Config) { c.PrecisionStep = 1e-7 },
		"large":    func(c *Config) { c.TargetPrecision = 1e21 },
		"pruneall": func(c *Config) { c.PruneAgainstAll = true },
		"nodelta":  func(c *Config) { c.DisableDeltaFilter = true },
		"noorder":  func(c *Config) { c.DisableOrderAwarePruning = true },
		"retain":   func(c *Config) { c.RetainDominatedCandidates = true },
		"nofilter": func(c *Config) { c.DisableVisibleFrontierFilter = true },
		"model":    func(c *Config) { c.Model = costmodel.MustNew(c.Model.Space(), altParams()) },
		"twometric": func(c *Config) {
			c.Model = costmodel.MustNew(cost.NewSpace(cost.Time, cost.Cores), costmodel.DefaultParams())
		},
	} {
		c := base
		mutate(&c)
		configs[name] = c
	}
	for name, c := range configs {
		want := fmt.Sprintf("%dx%d|%g|%g|%v%v%v%v%v|%+v|%v",
			c.Model.Space().Dim(), c.ResolutionLevels, c.TargetPrecision,
			c.PrecisionStep,
			c.PruneAgainstAll, c.DisableDeltaFilter, c.DisableOrderAwarePruning,
			c.RetainDominatedCandidates, c.DisableVisibleFrontierFilter,
			c.Model.Params(), c.Model.Space())
		if got := cfgFingerprint(c); got != want {
			t.Errorf("%s: echo %q, want %q", name, got, want)
		}
		for other, o := range configs {
			if got := cfgMatches(c, cfgFingerprint(o)); got != (cfgFingerprint(c) == cfgFingerprint(o)) {
				t.Errorf("cfgMatches(%s, echo of %s) = %v", name, other, got)
			}
		}
	}
}

func altParams() costmodel.Params {
	p := costmodel.DefaultParams()
	p.HashPerRow *= 2
	return p
}

// TestSnapshotRestoreContinuesSparseIDs guards the pair memo against ID
// reuse now that arena IDs count retained plans, not generated ones: an
// optimizer restored mid-series must mint IDs above every snapshot ID,
// so no fresh pair is mistaken for a combined one, and must finish the
// series exactly like the uninterrupted source.
func TestSnapshotRestoreContinuesSparseIDs(t *testing.T) {
	cfg := defaultConfig()
	q := chain4(t)
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0)
	src.Optimize(nil, 1)
	snap := src.Snapshot()
	atSnapshot := src.Stats()
	if int(snap.nextID) >= atSnapshot.PlansGenerated {
		t.Fatalf("snapshot nextID %d not sparse against %d generated plans", snap.nextID, atSnapshot.PlansGenerated)
	}
	restored, err := NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
		restored.Optimize(nil, r)
	}

	// Same work, same outcome as the uninterrupted series.
	want, got := src.Stats().Minus(atSnapshot), restored.Stats()
	want.Invocations, got.Invocations = 0, 0
	if got != want {
		t.Errorf("restored series did\n %v\nuninterrupted source did\n %v", got, want)
	}
	if !sameSignatures(resultSignatures(src, nil, cfg.MaxResolution()),
		resultSignatures(restored, nil, cfg.MaxResolution())) {
		t.Error("restored optimizer diverged from source")
	}

	// Every stored plan has an ID of its own, and the ones minted after
	// the restore lie above the snapshot's watermark.
	byID := map[uint32]*plan.Node{}
	minted := 0
	for _, set := range []map[tableset.Set]*rangeindex.Index{restored.res, restored.cand} {
		for _, ix := range set {
			ix.All(func(e rangeindex.Entry) bool {
				p := e.Payload
				if prev, dup := byID[p.ID()]; dup && prev != p {
					t.Errorf("ID %d shared by %s and %s", p.ID(), prev.Signature(), p.Signature())
				}
				byID[p.ID()] = p
				if p.ID() >= snap.nextID {
					minted++
				}
				return true
			})
		}
	}
	if minted == 0 {
		t.Error("no plan was minted after the restore")
	}
	// The restored memo is the shared base plus the pairs combined
	// since; a minted ID colliding with a snapshot ID would merge two
	// keys.
	if own := pairsBeyond(restored, snap.pairs); len(own) != restored.Stats().PairsCombined || !strictlyAscending(own) {
		t.Errorf("memo holds %d keys beyond the base (strictly ascending %v), want the %d pairs combined since the restore",
			len(own), strictlyAscending(own), restored.Stats().PairsCombined)
	}
	if got, want := len(restored.Snapshot().pairs), len(snap.pairs)+restored.Stats().PairsCombined; got != want {
		t.Errorf("re-exported memo holds %d keys, want %d restored + combined (a key collided)", got, want)
	}
}

// pairsBeyond returns, ascending, the pairs o's IsFresh memo (base and
// log) holds that base does not. A pair o holds twice appears twice.
func pairsBeyond(o *Optimizer, base []uint64) []uint64 {
	var own []uint64
	for _, k := range slices.Concat(o.pairBase, o.pairLog) {
		if _, in := slices.BinarySearch(base, k); !in {
			own = append(own, k)
		}
	}
	slices.Sort(own)
	return own
}

// TestRestoreSharesFrozenPairs pins the shared-memo contract (DESIGN.md
// D8): a restore builds no memo of its own and copies no entry
// (D4), optimizers restored from one
// snapshot may run concurrently without ever writing its pair slice
// (-race is the check), and the memo a restored optimizer re-exports is
// the base itself while nothing was combined and base ∪ the pairs
// combined since, strictly ascending, afterwards.
func TestRestoreSharesFrozenPairs(t *testing.T) {
	q, cfg := chain4(t), defaultConfig()
	rM := cfg.MaxResolution()
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0)
	tight := componentMedian(src, 0)
	for r := 0; r <= rM; r++ {
		src.Optimize(tight, r)
	}
	snap := src.Snapshot()
	if len(snap.pairs) == 0 || !strictlyAscending(snap.pairs) {
		t.Fatalf("exported memo of %d pairs is empty or not strictly ascending", len(snap.pairs))
	}
	frozen := slices.Clone(snap.pairs)

	idle, err := NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(idle.pairLog) != 0 || &idle.pairBase[0] != &snap.pairs[0] {
		t.Errorf("restore built a memo of its own: %d logged keys, base shared %v",
			len(idle.pairLog), &idle.pairBase[0] == &snap.pairs[0])
	}
	for r := 0; r <= rM; r++ {
		idle.Optimize(tight, r)
	}
	// The source's regime was anchored by its unbounded first walk, so
	// the ledger covers every step of it.
	if st := idle.Stats(); st.PairsCombined != 0 || st.CoveredInvocations != rM+1 {
		t.Errorf("re-converging the snapshot's own regime: %v", st)
	}
	if re := idle.Snapshot(); &re.pairs[0] != &snap.pairs[0] {
		t.Error("re-export with an empty log copied the memo")
	}
	// The entry lists and their cell directories are borrowed like the
	// memo: beyond a cold optimizer, a restore allocates an index per plan
	// set (the index and its level headers) and the maps that hold them,
	// whatever the number of cells or entries in it.
	sets := len(snap.res) + len(snap.cand)
	cold := testing.AllocsPerRun(20, func() { MustNewOptimizer(q, cfg) })
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewOptimizerFromSnapshot(q, cfg, snap); err != nil {
			t.Fatal(err)
		}
	}); allocs > cold+float64(2*sets+8) {
		t.Errorf("a restore of %d plan sets holding %d entries allocates %.0f times, a cold optimizer %.0f",
			sets, snap.PlanCount(), allocs, cold)
	}

	// Two sessions dragged out of the snapshot's regime at the same time.
	const n = 2
	var wg sync.WaitGroup
	dragged := make([]*Optimizer, n)
	for i := range dragged {
		o, err := NewOptimizerFromSnapshot(q, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		dragged[i] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The unbounded focus at resolution 0 is on the snapshot's
			// ledger (the source's first invocation), so the pairs are
			// combined by the steps after the covered one.
			o.Optimize(nil, 0)
			if st := o.Stats(); st.CoveredInvocations != 1 || st.PairsCombined != 0 {
				t.Errorf("the opening step of the relax was not covered: %v", st)
			}
			for r := 1; r <= rM; r++ {
				o.Optimize(nil, r)
			}
			// Only the bounded foci above level 0 are recorded.
			if st := o.Stats(); st.CoveredInvocations != 1 {
				t.Errorf("the relax was covered beyond its opening step: %v", st)
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(snap.pairs, frozen) {
		t.Fatal("a restored optimizer wrote the shared memo")
	}
	for r := 0; r <= rM; r++ {
		src.Optimize(nil, r)
	}
	want := resultSignatures(src, nil, rM)
	for i, o := range dragged {
		if o.Stats().PairsCombined == 0 {
			t.Fatalf("restore %d combined nothing after the relax; the test lost its premise", i)
		}
		if !sameSignatures(resultSignatures(o, nil, rM), want) {
			t.Errorf("restore %d diverged from the uninterrupted source", i)
		}
		// A re-combined base pair would appear twice, and the export
		// would not be strictly ascending.
		own := pairsBeyond(o, frozen)
		re := o.Snapshot().pairs
		if !strictlyAscending(re) || len(own) != o.Stats().PairsCombined || len(re) != len(frozen)+len(own) {
			t.Errorf("restore %d re-exported %d pairs (strictly ascending %v), want %d base + %d combined, held %d beyond the base",
				i, len(re), strictlyAscending(re), len(frozen), o.Stats().PairsCombined, len(own))
		}
	}
}

// TestRestoreSharesEntryLists pins the copy-on-write contract of a
// restore (DESIGN.md D4): the range indexes of every optimizer restored
// from a snapshot are windows of the snapshot's entry lists, and an
// optimizer that drains candidates out of them and inserts results into
// them copies the cells it changes first. One restored optimizer is
// dragged through tighten, relax and unbounded regimes while a second is
// only read (-race is the check that the first writes nothing the second
// reads); afterwards the snapshot's lists and the second optimizer's
// result sets are as they were.
func TestRestoreSharesEntryLists(t *testing.T) {
	q, cfg := chain4(t), defaultConfig()
	rM := cfg.MaxResolution()
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0) // parks candidates for the finer levels
	snap := src.Snapshot()
	type planSets = map[tableset.Set][]rangeindex.Entry
	frozen := map[string]planSets{"result": {}, "candidate": {}}
	for name, set := range map[string]planSets{"result": snap.res, "candidate": snap.cand} {
		for sub, entries := range set {
			frozen[name][sub] = slices.Clone(entries)
		}
	}

	busy, err := NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for sub, entries := range snap.res {
		var first *rangeindex.Entry
		idle.res[sub].All(func(e rangeindex.Entry) bool { first = &e; return false })
		if first == nil || first.Payload != entries[0].Payload {
			t.Fatalf("restored result set %v does not start with the snapshot's first entry", sub)
		}
	}
	// candidateIDs reads every candidate entry of the idle optimizer.
	candidateIDs := func() (sum uint64) {
		for _, ix := range idle.cand {
			ix.All(func(e rangeindex.Entry) bool { sum += uint64(e.Payload.ID()); return true })
		}
		return sum
	}
	before, beforeCand := resultDigest(idle), candidateIDs()

	done := make(chan struct{})
	go func() {
		defer close(done)
		tight := componentMedian(busy, 0).Scale(0.7)
		for _, b := range []cost.Vector{tight, tight.Scale(1.6), nil} {
			for r := 0; r <= rM; r++ {
				busy.Optimize(b, r)
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if got := resultDigest(idle); got != before {
			t.Fatalf("the idle optimizer's result sets changed under it: digest %s, was %s", got, before)
		}
		if got := candidateIDs(); got != beforeCand {
			t.Fatalf("the idle optimizer's candidate sets changed under it")
		}
	}

	if st := busy.Stats(); st.CandidateRetrievals == 0 || st.ResultInserts == 0 {
		t.Fatalf("the drag drained or inserted nothing (%v); the test lost its premise", st)
	}
	for name, set := range map[string]planSets{"result": snap.res, "candidate": snap.cand} {
		for sub, entries := range set {
			if !slices.EqualFunc(entries, frozen[name][sub], func(a, b rangeindex.Entry) bool {
				return a.Payload == b.Payload && a.Resolution == b.Resolution && a.Epoch == b.Epoch && &a.Cost[0] == &b.Cost[0]
			}) {
				t.Errorf("a restored optimizer wrote the snapshot's %s list of %v", name, sub)
			}
		}
	}
}

// TestAdoptedImagesCopyOnWrite pins the copy-on-write contract of the
// frozen cell directories (DESIGN.md D4): optimizers on several
// goroutines restore one snapshot — adopting the same images — and drag
// it through regimes that insert and drain. Run it under -race. The
// snapshot's lists, and what a fresh restore enumerates and how many
// entries its retrievals test and match, must be as before.
func TestAdoptedImagesCopyOnWrite(t *testing.T) {
	q, cfg := chain4(t), defaultConfig()
	rM := cfg.MaxResolution()
	src := MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0) // parks candidates for the finer levels
	snap := src.Snapshot()

	// observe restores the snapshot afresh and returns its enumeration
	// and the retrieval ledger of one query per plan set.
	type seen struct {
		payload    *plan.Node
		cost       *float64
		resolution int
		epoch      uint64
	}
	observe := func() (map[string][]seen, int, int) {
		o, err := NewOptimizerFromSnapshot(q, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		all := map[string][]seen{}
		for name, set := range map[string]map[tableset.Set]*rangeindex.Index{"res": o.res, "cand": o.cand} {
			for sub, ix := range set {
				key := name + sub.String()
				ix.All(func(e rangeindex.Entry) bool {
					all[key] = append(all[key], seen{e.Payload, &e.Cost[0], e.Resolution, e.Epoch})
					return true
				})
			}
		}
		tight := componentMedian(o, 0).Scale(0.7)
		for sub := range o.res {
			o.ResultsFor(sub, tight, rM)
		}
		st := o.Stats()
		return all, st.EntriesTested, st.EntriesMatched
	}
	lists := func() map[string][]seen {
		out := map[string][]seen{}
		for name, set := range map[string]map[tableset.Set][]rangeindex.Entry{"res": snap.res, "cand": snap.cand} {
			for sub, entries := range set {
				for _, e := range entries {
					out[name+sub.String()] = append(out[name+sub.String()], seen{e.Payload, &e.Cost[0], e.Resolution, e.Epoch})
				}
			}
		}
		return out
	}
	wantLists := lists()
	wantAll, wantTested, wantMatched := observe()

	const n = 4
	var wg sync.WaitGroup
	stats := make([]Stats, n)
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := NewOptimizerFromSnapshot(q, cfg, snap)
			if err != nil {
				t.Error(err)
				return
			}
			tight := componentMedian(o, 0).Scale(0.6 + 0.1*float64(i))
			for _, b := range []cost.Vector{tight, tight.Scale(1.6), nil} {
				for r := 0; r <= rM; r++ {
					o.Optimize(b, r)
				}
			}
			stats[i] = o.Stats()
		}()
	}
	wg.Wait()
	for i, st := range stats {
		if st.ResultInserts == 0 || st.CandidateRetrievals == 0 {
			t.Fatalf("drag %d inserted or drained nothing (%v); the test lost its premise", i, st)
		}
	}
	if got := lists(); !maps.EqualFunc(got, wantLists, slices.Equal) {
		t.Error("a restored optimizer wrote the snapshot's lists")
	}
	gotAll, tested, matched := observe()
	if !maps.EqualFunc(gotAll, wantAll, slices.Equal) {
		t.Error("a fresh restore enumerates other entries than before the drags")
	}
	if tested != wantTested || matched != wantMatched {
		t.Errorf("a fresh restore's retrievals tested %d and matched %d entries, before the drags %d and %d",
			tested, matched, wantTested, wantMatched)
	}
}
