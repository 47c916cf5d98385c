package plan

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/tableset"
)

// flattenFixture builds a small shared DAG on an arena:
// j2 = (s0 ⋈ s1) ⋈ s2 with j1 = s0 ⋈ s1 shared by two roots.
func flattenFixture() (roots []*Node, distinct int) {
	a := NewArena()
	mkScan := func(id int) *Node {
		return a.NewNode(Node{
			Tables: tableset.Singleton(id), TableID: id, Scan: SeqScan,
			SampleRate: 1, Rows: 100, Cost: cost.Vec(1, float64(id)),
		})
	}
	s0, s1, s2 := mkScan(0), mkScan(1), mkScan(2)
	j1 := a.NewNode(Node{
		Tables: tableset.Of(0, 1), Join: HashJoin, Degree: 1,
		Left: s0, Right: s1, Rows: 50, Cost: cost.Vec(3, 4),
		Order: OrderOn(1),
	})
	j2 := a.NewNode(Node{
		Tables: tableset.Of(0, 1, 2), Join: MergeJoin, Degree: 2,
		Left: j1, Right: s2, Rows: 20, Cost: cost.Vec(9, 2),
	})
	j3 := a.NewNode(Node{
		Tables: tableset.Of(0, 1, 2), Join: NestLoopJoin, Degree: 1,
		Left: s2, Right: j1, Rows: 20, Cost: cost.Vec(8, 5),
	})
	return []*Node{j2, j3}, 6
}

// rebuild adds every flat node to a table sized for exactly them.
func rebuild(flat []Flat) (*NodeTable, error) {
	t := NewNodeTable(len(flat))
	for i := range flat {
		if err := t.Add(&flat[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func TestFlattenNodeTableRoundTrip(t *testing.T) {
	roots, distinct := flattenFixture()
	fl := NewFlattener()
	for _, r := range roots {
		fl.Add(r)
	}
	flat := fl.Nodes()
	if len(flat) != distinct {
		t.Fatalf("flattened %d nodes, want %d (sharing must deduplicate)", len(flat), distinct)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].ID <= flat[i-1].ID {
			t.Fatalf("node table not sorted by ID at %d", i)
		}
	}
	nodes, err := rebuild(flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if n := nodes.Lookup(flat[i].ID); n == nil || n.ID() != flat[i].ID {
			t.Fatalf("node %d not found by its ID", flat[i].ID)
		}
	}
	for _, r := range roots {
		got := nodes.Lookup(r.ID())
		if got == nil {
			t.Fatalf("root %d missing after round trip", r.ID())
		}
		if got.ID() != r.ID() {
			t.Errorf("root %d came back as ID %d", r.ID(), got.ID())
		}
		if got.Signature() != r.Signature() {
			t.Errorf("root %d signature %q, want %q", r.ID(), got.Signature(), r.Signature())
		}
		if got.Cost.String() != r.Cost.String() || got.Rows != r.Rows || got.Order != r.Order {
			t.Errorf("root %d derived fields diverge", r.ID())
		}
		if err := got.Validate(); err != nil {
			t.Errorf("rebuilt root %d invalid: %v", r.ID(), err)
		}
	}
	// Sub-plan sharing must be restored as sharing, not copies.
	r0, r1 := nodes.Lookup(roots[0].ID()), nodes.Lookup(roots[1].ID())
	if r0.Left != r1.Right {
		t.Error("shared sub-plan duplicated by the node table")
	}
	if nodes.Lookup(1<<20) != nil {
		t.Error("lookup of an ID never added found a node")
	}
}

func TestNodeTableRejectsCorruptTables(t *testing.T) {
	roots, _ := flattenFixture()
	fresh := func() []Flat {
		fl := NewFlattener()
		for _, r := range roots {
			fl.Add(r)
		}
		return fl.Nodes()
	}
	cases := []struct {
		name    string
		corrupt func([]Flat) []Flat
	}{
		{"unsorted IDs", func(f []Flat) []Flat {
			f[0], f[1] = f[1], f[0]
			return f
		}},
		{"duplicate ID", func(f []Flat) []Flat {
			f[1].ID = f[0].ID
			return f
		}},
		{"missing child", func(f []Flat) []Flat {
			return f[1:] // drops scan 0, referenced by the joins
		}},
		{"children not a partition", func(f []Flat) []Flat {
			for i := range f {
				if !f[i].IsScan() {
					f[i].Tables = f[i].Tables.Add(5)
					break
				}
			}
			return f
		}},
		{"scan not a singleton of its table", func(f []Flat) []Flat {
			f[0].TableID = 9
			return f
		}},
		{"bad sample rate", func(f []Flat) []Flat {
			f[0].SampleRate = 0
			return f
		}},
		{"bad degree", func(f []Flat) []Flat {
			for i := range f {
				if !f[i].IsScan() {
					f[i].Degree = 0
					break
				}
			}
			return f
		}},
		{"order outside table set", func(f []Flat) []Flat {
			f[0].Order = OrderOn(7)
			return f
		}},
		{"non-finite cost", func(f []Flat) []Flat {
			f[0].Cost = cost.Vec(1, 0).Scale(1e308).Scale(1e308)
			return f
		}},
		{"nil cost", func(f []Flat) []Flat {
			f[0].Cost = nil
			return f
		}},
	}
	for _, tc := range cases {
		if _, err := rebuild(tc.corrupt(fresh())); err == nil {
			t.Errorf("%s: corrupt input accepted", tc.name)
		}
	}
	// A node beyond the room the table was made with is refused: growing
	// the slab would move the nodes already handed out.
	flat := fresh()
	full := NewNodeTable(len(flat) - 1)
	for i := range flat {
		if err := full.Add(&flat[i]); (err != nil) != (i == len(flat)-1) {
			t.Errorf("table made for %d nodes: node %d added with error %v", len(flat)-1, i, err)
		}
	}
}
