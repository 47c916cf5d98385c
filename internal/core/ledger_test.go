package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// setEntry identifies one plan-set entry. Two optimizers in lockstep
// mint the same node IDs, so equal entries mean equal plans.
type setEntry struct {
	id         uint32
	res        int
	epoch      uint64
	cost, rows float64
}

// samePlanSets reports whether two plan-set maps hold the same entries.
// Optimizers in lockstep insert and drain in the same order, so each
// index is compared in its own enumeration order.
func samePlanSets(a, b map[tableset.Set]*rangeindex.Index) bool {
	entries := func(ix *rangeindex.Index, dst []setEntry) []setEntry {
		ix.All(func(e rangeindex.Entry) bool {
			dst = append(dst, setEntry{e.Payload.ID(), e.Resolution, e.Epoch, e.Cost.Norm1(), e.Payload.Rows})
			return true
		})
		return dst
	}
	if len(a) != len(b) {
		return false
	}
	var ea, eb []setEntry
	for sub, ixa := range a {
		ixb, ok := b[sub]
		if !ok {
			return false
		}
		ea, eb = entries(ixa, ea[:0]), entries(ixb, eb[:0])
		if !slices.Equal(ea, eb) {
			return false
		}
	}
	return true
}

// nextFocus draws the next invocation of a random interactive series:
// repeats, tightenings, relaxations, incomparable moves, jumps to the
// cost of a stored plan and to "no bounds", at sweeping, repeated and
// random resolutions.
func nextFocus(rng *rand.Rand, o *Optimizer, prevB cost.Vector, prevR int) (cost.Vector, int) {
	rM := o.cfg.MaxResolution()
	r := rng.Intn(rM + 1)
	switch x := rng.Float64(); {
	case x < 0.5:
		r = (prevR + 1) % (rM + 1)
	case x < 0.7:
		r = prevR
	}
	fromPlan := func() cost.Vector {
		plans := o.Results(nil, rM)
		return plans[rng.Intn(len(plans))].Cost.Scale(1 + 2*rng.Float64())
	}
	move := rng.Intn(6)
	if prevB == nil && move >= 1 && move <= 3 {
		move = 5
	}
	switch move {
	case 0: // the same bounds again
		return prevB, r
	case 1: // tighten
		return prevB.Scale(0.5 + 0.5*rng.Float64()), r
	case 2: // relax
		return prevB.Scale(1 + 1.5*rng.Float64()), r
	case 3: // incomparable: one metric up, the others down
		b := prevB.Scale(0.5 + 0.5*rng.Float64())
		d := rng.Intn(len(b))
		b[d] = prevB[d] * (1 + rng.Float64())
		return b, r
	case 4:
		return nil, r
	default:
		return fromPlan(), r
	}
}

// nextAnchoredFocus draws the next invocation of a cold-start series
// that stays anchored (DESIGN.md D18): repeats and tightenings at the
// same resolution, which the ledger covers once the focus is recorded,
// and refinements with or without a tightening, which run Δ-filtered.
// No step relaxes the bounds or coarsens the resolution.
func nextAnchoredFocus(rng *rand.Rand, o *Optimizer, prevB cost.Vector, prevR int) (cost.Vector, int) {
	rM := o.cfg.MaxResolution()
	b, r := prevB, prevR
	if x := rng.Float64(); x < 0.2 && r < rM {
		r++
		if rng.Intn(2) == 0 {
			return b, r
		}
	} else if x < 0.35 {
		return b, r
	}
	if b == nil {
		plans := o.Results(nil, rM)
		return plans[rng.Intn(len(plans))].Cost.Scale(1 + 2*rng.Float64()), r
	}
	return b.Scale(0.6 + 0.4*rng.Float64()), r
}

// TestCoveredInvocationIsNoOp pins the exactness of the completed-focus
// ledger: over random invocation series, an optimizer that consults the
// ledger and one that forgets it before every call hold the same result
// sets, candidate sets and pair memo and have done the same work after
// every single invocation. Only the stale-pair look-ups and the index
// retrievals the covered invocations skipped (and the frontier reads this
// test drives the ledger's series with), and their own count, may differ.
//
// Beside the random series, which anchor and lose their anchor at
// random, run cold-start anchored series, whose Δ-filtered steps record
// their foci, and a series whose relaxing full walk meets entries above
// its level, which must not anchor.
func TestCoveredInvocationIsNoOp(t *testing.T) {
	queries := []struct {
		name string
		q    *query.Query
	}{
		{"small", smallQuery(t)},
		{"chain4", chain4(t)},
		{"star4", star4(t)},
	}
	configs := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"retain", func(c *Config) { c.RetainDominatedCandidates = true }},
		{"pruneall", func(c *Config) { c.PruneAgainstAll = true }},
		{"noorder", func(c *Config) { c.DisableOrderAwarePruning = true }},
		{"nodelta", func(c *Config) { c.DisableDeltaFilter = true }},
	}
	steps := 40
	if testing.Short() {
		steps = 25
	}
	unanchored := 0
	for _, qc := range queries {
		for _, cc := range configs {
			cfg := defaultConfig()
			cc.set(&cfg)
			// run drives one series through a ledger optimizer and a
			// control that forgets its ledger before every call;
			// focus(ledger, step) draws the step's focus.
			run := func(name string, steps int, focus func(ledger *Optimizer, step int) (cost.Vector, int)) (ledger, control *Optimizer) {
				ledger, control = MustNewOptimizer(qc.q, cfg), MustNewOptimizer(qc.q, cfg)
				for step := 0; step < steps; step++ {
					b, r := focus(ledger, step)
					ledger.Optimize(b, r)
					clear(control.done)
					control.Optimize(b, r)

					at := func() string { return fmt.Sprintf("%s step %d (%v, r%d)", name, step, b, r) }
					if !samePlanSets(ledger.res, control.res) {
						t.Fatalf("%s: result sets differ", at())
					}
					if !samePlanSets(ledger.cand, control.cand) {
						t.Fatalf("%s: candidate sets differ", at())
					}
					// Both are cold; they fold at different
					// invocations, so compare what they hold.
					if !slices.Equal(pairsBeyond(ledger, nil), pairsBeyond(control, nil)) {
						t.Fatalf("%s: pair memos differ", at())
					}
					got, want := ledger.Stats(), control.Stats()
					if want.CoveredInvocations != 0 {
						t.Fatalf("%s: the control consulted a ledger: %v", at(), want)
					}
					got.PairsSkippedStale, want.PairsSkippedStale = 0, 0
					got.EntriesTested, want.EntriesTested = 0, 0
					got.EntriesMatched, want.EntriesMatched = 0, 0
					got.CoveredInvocations = 0
					if got != want {
						t.Fatalf("%s: work differs\n ledger  %v\n control %v", at(), got, want)
					}
				}
				if !slices.Equal(ledger.exportPairs(), control.exportPairs()) {
					t.Fatalf("%s: exported pair memos differ", name)
				}
				return ledger, control
			}
			// powered reports the series' ledger numbers and fails a
			// series in which the ledger covered nothing or everything,
			// or, when the series has stale look-ups to save, saved none.
			powered := func(name string, ledger, control *Optimizer) {
				st := ledger.Stats()
				t.Logf("%s: %d of %d invocations covered, %d of %d stale look-ups", name, st.CoveredInvocations, st.Invocations, st.PairsSkippedStale, control.Stats().PairsSkippedStale)
				if st.CoveredInvocations == 0 || st.CoveredInvocations == st.Invocations {
					t.Errorf("%s: %d of %d invocations covered; the series has no power", name, st.CoveredInvocations, st.Invocations)
				}
				if ctl := control.Stats().PairsSkippedStale; ctl > 0 && st.PairsSkippedStale >= ctl {
					t.Errorf("%s: the ledger saved no look-ups (%d vs %d)", name, st.PairsSkippedStale, control.Stats().PairsSkippedStale)
				}
			}

			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", qc.name, cc.name, seed)
				rng := rand.New(rand.NewSource(seed))
				var b cost.Vector
				r := 0
				ledger, control := run(name, steps, func(ledger *Optimizer, step int) (cost.Vector, int) {
					if step > 0 {
						b, r = nextFocus(rng, ledger, b, r)
					}
					return b, r
				})
				powered(name, ledger, control)

				// A cold start anchors the series: after every
				// invocation the ledger covers its focus, so repeats and
				// tightenings at one level are covered.
				name = fmt.Sprintf("%s/%s/anchored%d", qc.name, cc.name, seed)
				b, r = nil, 0
				refined := 0
				ledger, control = run(name, steps, func(ledger *Optimizer, step int) (cost.Vector, int) {
					if step > 0 {
						bb := b
						if bb == nil {
							bb = ledger.unbounded
						}
						if d := ledger.done[r]; d == nil || !bb.Dominates(d) {
							t.Fatalf("%s step %d: the ledger does not cover the anchored focus (%v, r%d): done[%d] = %v", name, step-1, b, r, r, d)
						}
						prevR := r
						b, r = nextAnchoredFocus(rng, ledger, b, r)
						if r > prevR {
							refined++
						}
					}
					return b, r
				})
				powered(name, ledger, control)
				if refined == 0 {
					t.Errorf("%s: the series never refined", name)
				}
			}

			// A relaxing walk on a state that holds entries above its
			// level does not anchor: the refinement after it runs
			// Δ-filtered and records nothing. A scout runs the sweep
			// first: where it leaves no entry above level 0, the walk
			// would anchor rightly, and the series is skipped.
			name := fmt.Sprintf("%s/%s/unanchored", qc.name, cc.name)
			rM := cfg.MaxResolution()
			scout := MustNewOptimizer(qc.q, cfg)
			scout.Optimize(nil, 0)
			tight := componentMedian(scout, 0)
			scout = MustNewOptimizer(qc.q, cfg)
			for r := 0; r <= rM; r++ {
				scout.Optimize(tight, r)
			}
			if scout.resTop == 0 {
				t.Logf("%s: the sweep left no entry above level 0; skipped", name)
				continue
			}
			unanchored++
			relaxed := tight.Scale(4)
			ledger, _ := run(name, rM+3, func(ledger *Optimizer, step int) (cost.Vector, int) {
				switch {
				case step <= rM:
					return tight, step
				case step == rM+1:
					if got := recorded(ledger); len(got) != rM+1 {
						t.Fatalf("%s: the anchored sweep recorded levels %v, want all %d", name, got, rM+1)
					}
					return relaxed, 0
				default:
					if ledger.stats.CoveredInvocations != 0 {
						t.Fatalf("%s: the relaxing step was covered; the series lost its premise", name)
					}
					if ledger.anchored {
						t.Fatalf("%s: a walk below entries at level %d anchored the series", name, ledger.resTop)
					}
					return relaxed, 1
				}
			})
			if d := ledger.done[1]; d != nil && d.Equal(relaxed) && !cfg.DisableDeltaFilter {
				t.Errorf("%s: the unanchored refinement recorded its focus", name)
			}
		}
	}
	if unanchored == 0 {
		t.Error("no configuration left entries above level 0; the unanchored series never ran")
	}
}

// recorded lists the levels the optimizer's ledger has a record for.
func recorded(o *Optimizer) []int {
	var out []int
	for r, d := range o.done {
		if d != nil {
			out = append(out, r)
		}
	}
	return out
}

// TestLedgerInvalidatedByInsert pins the invalidation rule: an insert at
// level ℓ — result or candidate — drops the records of levels ≥ ℓ and no
// others, and an invocation whose bounds exceed the record walks and
// records its own focus.
func TestLedgerInvalidatedByInsert(t *testing.T) {
	q := chain4(t)
	cfg := defaultConfig()
	cfg.DisableDeltaFilter = true // every invocation is a full walk and records
	rM := cfg.MaxResolution()
	o := MustNewOptimizer(q, cfg)
	for r := 0; r <= rM; r++ {
		o.Optimize(nil, r)
	}
	if got := recorded(o); len(got) != rM+1 {
		t.Fatalf("after a full-walk sweep levels %v are recorded, want all %d", got, rM+1)
	}

	// A plan that undercuts every stored one enters the result set at the
	// level it is pruned for.
	full := q.Tables()
	cheap := *o.Results(nil, rM)[0]
	cheap.Cost = cheap.Cost.Scale(0.01)
	before := o.Stats().ResultInserts
	o.prune(full, o.unbounded, 2, &cheap, false)
	if o.Stats().ResultInserts != before+1 {
		t.Fatal("the undercutting plan was not inserted")
	}
	if got := recorded(o); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("after a result insert at level 2 levels %v are recorded, want [0 1]", got)
	}
	// Out of bounds, it is parked as a candidate of the same level.
	outside := cheap
	outside.Cost = cheap.Cost.Scale(0.5)
	before = o.Stats().CandidateInserts
	o.prune(full, outside.Cost.Scale(0.5), 1, &outside, false)
	if o.Stats().CandidateInserts != before+1 {
		t.Fatal("the out-of-bounds plan was not parked")
	}
	if got := recorded(o); !slices.Equal(got, []int{0}) {
		t.Errorf("after a candidate insert at level 1 levels %v are recorded, want [0]", got)
	}

	// Bounds: covered at or below the record, walked and re-recorded above.
	b1 := componentMedian(o, 0)
	b2 := b1.Scale(1.5)
	o = MustNewOptimizer(q, defaultConfig())
	o.Optimize(b1, 0)
	if st := o.Stats(); st.CoveredInvocations != 0 || !o.done[0].Equal(b1) {
		t.Fatalf("walk at b1 not recorded: done[0] = %v, %v", o.done[0], st)
	}
	o.Optimize(b1.Scale(0.9), 0)
	if st := o.Stats(); st.CoveredInvocations != 1 || !o.done[0].Equal(b1) {
		t.Errorf("tightening below the record: done[0] = %v, %v", o.done[0], st)
	}
	o.Optimize(b2, 0)
	if st := o.Stats(); st.CoveredInvocations != 1 || !o.done[0].Equal(b2) {
		t.Errorf("relax beyond the record: done[0] = %v, %v", o.done[0], st)
	}
	o.Optimize(b1, 0)
	if st := o.Stats(); st.CoveredInvocations != 2 || !o.done[0].Equal(b2) {
		t.Errorf("back under the new record: done[0] = %v, %v", o.done[0], st)
	}
}

// TestLedgerLifecycle follows the ledger through the snapshot layer: it
// survives export, the wire view and Remap, is gone after Recost and
// after DropPairs, and restores never write the snapshot's copy (-race is
// the check for the concurrent part). The codec leg is pinned by
// snapcodec's TestLedgerSurvivesCodec.
func TestLedgerLifecycle(t *testing.T) {
	qa, qb, cfg := remapQueryPair(t)
	rM := cfg.MaxResolution()
	scout := MustNewOptimizer(qa, cfg)
	scout.Optimize(nil, 0)
	b0 := componentMedian(scout, 0)

	src := MustNewOptimizer(qa, cfg)
	for r := 0; r <= rM; r++ {
		src.Optimize(b0, r)
	}
	snap := src.Snapshot()
	if len(snap.done) != rM+1 || !snap.done[0].Equal(b0) {
		t.Fatalf("exported ledger %v misses the opening focus", snap.done)
	}
	if &snap.done[0][0] == &src.done[0][0] {
		t.Fatal("the snapshot shares the source's ledger vector")
	}

	// coveredOpening restores s for q and reports whether the opening
	// step of the source's regime is covered.
	coveredOpening := func(q *query.Query, s *Snapshot) bool {
		t.Helper()
		o, err := NewOptimizerFromSnapshot(q, cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		o.Optimize(b0, 0)
		return o.Stats().CoveredInvocations == 1
	}
	if !coveredOpening(qa, snap) {
		t.Error("ledger lost on restore")
	}
	wired, err := SnapshotFromWire(snap.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !coveredOpening(qa, wired) {
		t.Error("ledger lost through the wire view")
	}
	remapped, err := snap.Remap(remapPermBetween(t, qa, qb))
	if err != nil {
		t.Fatal(err)
	}
	if remapped == snap {
		t.Fatal("identity remap; the test lost its premise")
	}
	if !coveredOpening(qb, remapped) {
		t.Error("ledger lost on Remap")
	}
	recosted, err := snap.Recost(qa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recosted.done != nil || coveredOpening(qa, recosted) {
		t.Error("ledger survived Recost")
	}
	dropped, err := SnapshotFromWire(snap.Wire())
	if err != nil {
		t.Fatal(err)
	}
	dropped.DropPairs()
	if dropped.done != nil || coveredOpening(qa, dropped) {
		t.Error("ledger survived DropPairs")
	}
	if snap.done == nil {
		t.Fatal("DropPairs on a wire copy emptied the source's ledger")
	}

	// Two sessions restored from one snapshot relax at the same time and
	// overwrite their level-0 record in place; neither may write the
	// snapshot's vector or the other's.
	relaxed := b0.Scale(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		o, err := NewOptimizerFromSnapshot(qa, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r <= rM; r++ {
				o.Optimize(relaxed, r)
			}
			if st := o.Stats(); st.CoveredInvocations != 0 || !o.done[0].Equal(relaxed) {
				t.Errorf("restore %d recorded %v, want %v (%v)", i, o.done[0], relaxed, st)
			}
		}()
	}
	wg.Wait()
	if !snap.done[0].Equal(b0) {
		t.Error("a restored optimizer wrote the snapshot's ledger")
	}
}
