package core_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/snapcodec"
	"repro/internal/tableset"
)

// tightBound is 0.7 times the component-wise median of o's root result
// costs at resolution r: bounds that drag a session off its frontier.
func tightBound(o *core.Optimizer, r int) cost.Vector {
	plans := o.Results(nil, r)
	b := make(cost.Vector, len(plans[0].Cost))
	for d := range b {
		vs := make([]float64, len(plans))
		for i, p := range plans {
			vs[i] = p.Cost[d]
		}
		slices.Sort(vs)
		b[d] = 0.7 * vs[len(vs)/2]
	}
	return b
}

// planSets returns the result and candidate lists of s.
func planSets(s *core.Snapshot) [2]map[tableset.Set][]rangeindex.Entry {
	w := s.Wire()
	return [2]map[tableset.Set][]rangeindex.Entry{w.Res, w.Cand}
}

// nodesByID walks every plan DAG of s and returns its nodes by ID,
// failing when two distinct nodes carry one ID (sharing lost).
func nodesByID(t *testing.T, s *core.Snapshot) map[uint32]*plan.Node {
	t.Helper()
	nodes := map[uint32]*plan.Node{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		if seen, ok := nodes[n.ID()]; ok {
			if seen != n {
				t.Fatalf("two nodes carry ID %d", n.ID())
			}
			return
		}
		nodes[n.ID()] = n
		walk(n.Left)
		walk(n.Right)
	}
	for _, set := range planSets(s) {
		for _, entries := range set {
			for _, e := range entries {
				walk(e.Payload)
			}
		}
	}
	return nodes
}

// encode is snapcodec.Encode, failing the test on error.
func encode(t *testing.T, s *core.Snapshot) []byte {
	t.Helper()
	b, err := snapcodec.Encode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkReexport checks re, the export of o, an optimizer restored from
// the snapshot from: its encoding is the reference export's, byte for
// byte; every node below from's numbering watermark is from's own node;
// and every plan set o left untouched exports from's very list.
func checkReexport(t *testing.T, o *core.Optimizer, from, re *core.Snapshot) {
	t.Helper()
	if !bytes.Equal(encode(t, re), encode(t, core.ReferenceSnapshot(o))) {
		t.Fatal("the re-export encodes differently from a deep-copying export")
	}
	watermark := from.Wire().NextID
	src, shared := nodesByID(t, from), 0
	for id, n := range nodesByID(t, re) {
		if id < watermark {
			if src[id] != n {
				t.Fatalf("node %d of the re-export is not the restored snapshot's node", id)
			}
			shared++
		} else if _, ok := src[id]; ok {
			t.Fatalf("new node %d collides with a restored one", id)
		}
	}
	if len(src) > 0 && shared == 0 {
		t.Fatal("the re-export shares no node with the snapshot it was restored from")
	}
	frozenRes, frozenCand := core.FrozenSets(o)
	for i, subs := range [2][]tableset.Set{frozenRes, frozenCand} {
		for _, sub := range subs {
			got, want := planSets(re)[i][sub], planSets(from)[i][sub]
			if len(got) == 0 || &got[0] != &want[0] || len(got) != len(want) {
				t.Fatalf("untouched plan set %v was exported as a copy", sub)
			}
		}
	}
}

// restoreCase is a snapshot and the query and configuration that
// restore it.
type restoreCase struct {
	name string
	q    *query.Query
	cfg  core.Config
	snap *core.Snapshot
}

// restoreCases builds, from src optimized under cfg, the four kinds of
// restore a warm session starts from: exact, iso-remapped, re-costed and
// decoded from the wire. remapTo/perm and drifted may be nil to skip the
// kinds that need them.
func restoreCases(t *testing.T, name string, q *query.Query, cfg core.Config, run func(*core.Optimizer),
	remapTo *query.Query, perm []int, drifted *query.Query) []restoreCase {
	t.Helper()
	src := core.MustNewOptimizer(q, cfg)
	run(src)
	snap := src.Snapshot()
	decoded, err := snapcodec.Decode(encode(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	cases := []restoreCase{
		{name + "/exact", q, cfg, snap},
		{name + "/decoded", q, cfg, decoded},
	}
	if remapTo != nil {
		remapped, err := snap.Remap(perm)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, restoreCase{name + "/remapped", remapTo, cfg, remapped})
	}
	if drifted != nil {
		recosted, err := snap.Recost(drifted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, restoreCase{name + "/recosted", drifted, cfg, recosted})
	}
	return cases
}

// TestReexportSharesRestoredState pins what a restored optimizer's
// export shares (DESIGN.md D8): for exact, iso-remapped, re-costed and
// decoded restores, after a covered regime and after a drag regime that
// inserts and drains, the export is byte-identical on the wire to one
// that deep-copies every node; the nodes it shares are the restored
// snapshot's own; and a plan set no write touched exports the list it
// was restored from. The export is then restored and dragged once more,
// so a second generation shares the first's nodes the same way.
func TestReexportSharesRestoredState(t *testing.T) {
	qa, qb, remapCfg, perm := core.RemapQueryPair(t)
	qOld, qDrift, driftCfg := core.DriftQueryPair(t)
	chain, err := query.Synthetic(catalog.TPCH(1), 4, query.Chain, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	chainCfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}

	converge := func(o *core.Optimizer) {
		for r := 0; r <= o.Config().MaxResolution(); r++ {
			o.Optimize(nil, r)
		}
	}
	firstFrontier := func(o *core.Optimizer) { o.Optimize(nil, 0) }
	drag := func(o *core.Optimizer) {
		rM := o.Config().MaxResolution()
		tight := tightBound(o, 0)
		for _, b := range []cost.Vector{tight, tight.Scale(1.6), nil} {
			for r := 0; r <= rM; r++ {
				o.Optimize(b, r)
			}
		}
	}

	type source struct {
		name    string
		prepare func(*core.Optimizer)
		// covered re-runs the source's own last regime: the ledger of an
		// exact, remapped or decoded restore covers every invocation.
		covered func(*core.Optimizer)
	}
	var cases []restoreCase
	var covered []func(*core.Optimizer)
	for _, src := range []source{
		{"converged", converge, converge},
		{"first", firstFrontier, firstFrontier},
	} {
		add := func(cs []restoreCase) {
			cases = append(cases, cs...)
			for range cs {
				covered = append(covered, src.covered)
			}
		}
		add(restoreCases(t, "chain4-"+src.name, chain, chainCfg, src.prepare, nil, nil, nil))
		add(restoreCases(t, "remap-"+src.name, qa, remapCfg, src.prepare, qb, perm, nil))
		add(restoreCases(t, "drift-"+src.name, qOld, driftCfg, src.prepare, nil, nil, qDrift)[2:])
	}

	dragged := false
	for i, rc := range cases {
		for _, regime := range []struct {
			name string
			run  func(*core.Optimizer)
		}{{"covered", covered[i]}, {"drag", drag}} {
			t.Run(rc.name+"/"+regime.name, func(t *testing.T) {
				o, err := core.NewOptimizerFromSnapshot(rc.q, rc.cfg, rc.snap)
				if err != nil {
					t.Fatal(err)
				}
				before := o.Stats()
				regime.run(o)
				st := o.Stats().Minus(before)
				re := o.Snapshot()
				checkReexport(t, o, rc.snap, re)
				// A re-costed snapshot carries no ledger (its records rest
				// on the old costs), so only the others are covered: their
				// regime writes nothing and exports every list as it was.
				if regime.name == "covered" && !strings.HasSuffix(rc.name, "/recosted") {
					res, cand := core.FrozenSets(o)
					w := rc.snap.Wire()
					if st.CoveredInvocations == 0 || len(res)+len(cand) != len(w.Res)+len(w.Cand) {
						t.Fatalf("the covered regime (%v) left %d of %d plan sets untouched",
							st, len(res)+len(cand), len(w.Res)+len(w.Cand))
					}
				}
				if regime.name == "drag" && st.ResultInserts > 0 && st.CandidateRetrievals > 0 {
					dragged = true
				}

				next, err := core.NewOptimizerFromSnapshot(rc.q, rc.cfg, re)
				if err != nil {
					t.Fatal(err)
				}
				drag(next)
				checkReexport(t, next, re, next.Snapshot())
			})
		}
	}
	if !dragged {
		t.Fatal("no drag regime both inserted and drained; the test lost its premise")
	}
}
