package snapcodec

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/record.moqs from the literal snapshot (only to record a deliberate format change)")

// goldenWire is the snapshot testdata/record.moqs holds, as a literal
// (no optimizer run), so pruning changes cannot move the pin: two
// scans and the join of them in the result sets, a sampled scan in the
// candidate sets, a two-level ledger, recorded statistics and a pair
// memo.
func goldenWire() core.SnapshotWire {
	a := plan.NewArena()
	s0 := a.NewNode(plan.Node{Tables: tableset.Of(0), TableID: 0, Scan: plan.SeqScan, SampleRate: 1,
		Rows: 1500, Cost: cost.Vector{10, 1, 0}})
	s1 := a.NewNode(plan.Node{Tables: tableset.Of(1), TableID: 1, Scan: plan.IndexScan, SampleRate: 1,
		Rows: 200, Cost: cost.Vector{4, 2, 0}, Order: plan.OrderOn(1)})
	j := a.NewNode(plan.Node{Tables: tableset.Of(0, 1), Join: plan.MergeJoin, Degree: 2, Left: s0, Right: s1,
		Rows: 300, Cost: cost.Vector{25.5, 2, 0}, Order: plan.OrderOn(1)})
	s2 := a.NewNode(plan.Node{Tables: tableset.Of(0), TableID: 0, Scan: plan.SampleScan, SampleRate: 0.25,
		Rows: 375, Cost: cost.Vector{2.5, 1, 0.5}})
	entry := func(n *plan.Node, res int, epoch uint64) rangeindex.Entry {
		return rangeindex.Entry{Cost: n.Cost, Resolution: res, Epoch: epoch, Payload: n}
	}
	return core.SnapshotWire{
		Res: map[tableset.Set][]rangeindex.Entry{
			tableset.Of(0):    {entry(s0, 0, 1)},
			tableset.Of(1):    {entry(s1, 0, 1)},
			tableset.Of(0, 1): {entry(j, 1, 2)},
		},
		Cand: map[tableset.Set][]rangeindex.Entry{
			tableset.Of(0): {entry(s2, 2, 2)},
		},
		Pairs:      []uint64{0<<32 | 1, 1<<32 | 0, 3<<32 | 1},
		NextID:     a.NextID(),
		Epoch:      2,
		PrevBounds: []float64{100, math.Inf(1), 1},
		PrevRes:    1,
		Done:       []cost.Vector{{math.Inf(1), math.Inf(1), math.Inf(1)}, nil, {50, 4, 1}},
		CfgEcho:    "3x3|golden",
		TableStats: []core.TableStat{
			{ID: 0, Rows: 1500, Width: 16, Filter: 1, Rates: []float64{0.25, 1}},
			{ID: 1, Rows: 200, Width: 8, Filter: 0.5, HasIndex: true},
		},
		EdgeStats:  []core.EdgeStat{{A: 0, B: 1, Sel: 0.001}},
		StatsEpoch: 7,
	}
}

// TestGoldenRecord pins the wire format: testdata/record.moqs decodes
// to the literal snapshot, and that snapshot encodes to exactly those
// bytes. The file was written once and is never regenerated to make a
// change pass; a format change bumps Version instead.
func TestGoldenRecord(t *testing.T) {
	path := filepath.Join("testdata", "record.moqs")
	want, err := core.SnapshotFromWire(goldenWire())
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		data, err := Encode(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(golden)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, lit := snap.Wire(), goldenWire()
	if got.CfgEcho != lit.CfgEcho || got.NextID != lit.NextID || got.Epoch != lit.Epoch ||
		got.PrevRes != lit.PrevRes || got.StatsEpoch != lit.StatsEpoch ||
		!slices.Equal(got.PrevBounds, lit.PrevBounds) || !slices.Equal(got.Pairs, lit.Pairs) ||
		!slices.EqualFunc(got.Done, lit.Done, cost.Vector.Equal) ||
		len(got.TableStats) != len(lit.TableStats) || len(got.EdgeStats) != len(lit.EdgeStats) ||
		got.EdgeStats[0] != lit.EdgeStats[0] {
		t.Fatalf("decoded header %+v, literal %+v", got, lit)
	}
	for _, sets := range [][2]map[tableset.Set][]rangeindex.Entry{{got.Res, lit.Res}, {got.Cand, lit.Cand}} {
		if len(sets[0]) != len(sets[1]) {
			t.Fatalf("decoded %d subsets, literal %d", len(sets[0]), len(sets[1]))
		}
		for sub, es := range sets[1] {
			ds := sets[0][sub]
			if len(ds) != len(es) {
				t.Fatalf("subset %v: decoded %d entries, literal %d", sub, len(ds), len(es))
			}
			for i := range es {
				if ds[i].Payload.Signature() != es[i].Payload.Signature() || !ds[i].Cost.Equal(es[i].Cost) ||
					ds[i].Resolution != es[i].Resolution || ds[i].Epoch != es[i].Epoch {
					t.Fatalf("subset %v entry %d: decoded %s %v, literal %s %v", sub, i,
						ds[i].Payload.Signature(), ds[i].Cost, es[i].Payload.Signature(), es[i].Cost)
				}
			}
		}
	}
	for name, s := range map[string]*core.Snapshot{"decoded": snap, "literal": want} {
		data, err := Encode(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, golden) {
			t.Fatalf("the %s snapshot encodes to %d bytes that differ from the golden %d", name, len(data), len(golden))
		}
	}
}
