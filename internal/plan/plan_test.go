package plan

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/tableset"
)

func scan(id int, op ScanOp, rate float64) *Node {
	return &Node{
		Tables:     tableset.Singleton(id),
		TableID:    id,
		Scan:       op,
		SampleRate: rate,
		Rows:       100,
		Cost:       cost.Vec(1, 1, 0),
	}
}

func join(op JoinOp, deg int, l, r *Node) *Node {
	return &Node{
		Tables: l.Tables.Union(r.Tables),
		Join:   op,
		Degree: deg,
		Left:   l,
		Right:  r,
		Rows:   1000,
		Cost:   cost.Vec(5, 2, 0),
	}
}

func TestOpStrings(t *testing.T) {
	if SeqScan.String() != "SeqScan" || IndexScan.String() != "IndexScan" ||
		SampleScan.String() != "SampleScan" {
		t.Error("scan op names")
	}
	if ScanOp(9).String() != "ScanOp(9)" {
		t.Error("unknown scan op name")
	}
	if HashJoin.String() != "HashJoin" || MergeJoin.String() != "MergeJoin" ||
		NestLoopJoin.String() != "NestLoopJoin" {
		t.Error("join op names")
	}
	if JoinOp(9).String() != "JoinOp(9)" {
		t.Error("unknown join op name")
	}
}

func TestOrder(t *testing.T) {
	o := OrderOn(3)
	if o.TableID() != 3 {
		t.Errorf("TableID = %d", o.TableID())
	}
	if o.String() != "sorted(t3)" {
		t.Errorf("String = %q", o.String())
	}
	if OrderNone.String() != "unordered" {
		t.Error("OrderNone string")
	}
	if !o.Covers(OrderNone) {
		t.Error("any order covers OrderNone")
	}
	if !o.Covers(o) {
		t.Error("order covers itself")
	}
	if o.Covers(OrderOn(4)) {
		t.Error("different orders must not cover")
	}
	if OrderNone.Covers(o) {
		t.Error("OrderNone cannot cover a real order")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OrderNone.TableID() did not panic")
			}
		}()
		OrderNone.TableID()
	}()
}

func TestIsScanAndCounts(t *testing.T) {
	s0, s1 := scan(0, SeqScan, 1), scan(1, IndexScan, 1)
	j := join(HashJoin, 2, s0, s1)
	if !s0.IsScan() || j.IsScan() {
		t.Error("IsScan wrong")
	}
	j2 := join(MergeJoin, 1, j, scan(2, SeqScan, 1))
	if j2.NumTables() != 3 {
		t.Errorf("NumTables = %d", j2.NumTables())
	}
}

func TestValidateOK(t *testing.T) {
	p := join(HashJoin, 2,
		scan(0, SeqScan, 1),
		join(MergeJoin, 1, scan(1, SampleScan, 0.5), scan(2, IndexScan, 1)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *Node
		errSub string
	}{
		{"nil", func() *Node { return nil }, "nil node"},
		{"empty tables", func() *Node {
			n := scan(0, SeqScan, 1)
			n.Tables = tableset.Empty()
			return n
		}, "empty table set"},
		{"bad rate", func() *Node { return scan(0, SeqScan, 0) }, "sample rate"},
		{"sample rate 1", func() *Node { return scan(0, SampleScan, 1) }, "duplicates SeqScan"},
		{"scan table mismatch", func() *Node {
			n := scan(0, SeqScan, 1)
			n.Tables = tableset.Singleton(1)
			return n
		}, "scan tables"},
		{"join one child", func() *Node {
			n := join(HashJoin, 1, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
			n.Right = nil
			return n
		}, "single child"},
		{"bad degree", func() *Node {
			return join(HashJoin, 0, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
		}, "degree"},
		{"overlap", func() *Node {
			n := join(HashJoin, 1, scan(0, SeqScan, 1), scan(0, SeqScan, 1))
			n.Tables = tableset.Singleton(0)
			return n
		}, "overlapping"},
		{"union mismatch", func() *Node {
			n := join(HashJoin, 1, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
			n.Tables = tableset.Of(0, 1, 2)
			return n
		}, "∪"},
		{"negative rows", func() *Node {
			n := scan(0, SeqScan, 1)
			n.Rows = -1
			return n
		}, "negative row"},
		{"bad cost", func() *Node {
			n := scan(0, SeqScan, 1)
			n.Cost = cost.Vec(-1)
			return n
		}, "non-finite cost"},
		{"bad child", func() *Node {
			return join(HashJoin, 1, scan(0, SeqScan, 0), scan(1, SeqScan, 1))
		}, "sample rate"},
	}
	for _, tc := range cases {
		err := tc.build().Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errSub)
		}
	}
}

func TestString(t *testing.T) {
	p := join(HashJoin, 2, scan(0, SeqScan, 1), scan(1, SampleScan, 0.25))
	got := p.String()
	want := "HashJoin:2(SeqScan(t0), SampleScan(t1@0.25))"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestIndented(t *testing.T) {
	p := join(MergeJoin, 1, scan(0, SeqScan, 1), scan(1, IndexScan, 1))
	out := p.Indented()
	if !strings.Contains(out, "MergeJoin") || !strings.Contains(out, "  SeqScan") {
		t.Errorf("Indented output unexpected:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 3 {
		t.Errorf("Indented has %d lines, want 3", lines)
	}
}

func TestSignatureDistinguishesPlans(t *testing.T) {
	a := join(HashJoin, 2, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
	b := join(HashJoin, 4, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
	c := join(MergeJoin, 2, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
	d := join(HashJoin, 2, scan(1, SeqScan, 1), scan(0, SeqScan, 1))
	e := join(HashJoin, 2, scan(0, SampleScan, 0.5), scan(1, SeqScan, 1))
	sigs := map[string]string{}
	for name, p := range map[string]*Node{"a": a, "b": b, "c": c, "d": d, "e": e} {
		sig := p.Signature()
		if prev, dup := sigs[sig]; dup {
			t.Errorf("plans %s and %s share signature %q", prev, name, sig)
		}
		sigs[sig] = name
	}
	// Same construction yields same signature.
	a2 := join(HashJoin, 2, scan(0, SeqScan, 1), scan(1, SeqScan, 1))
	if a.Signature() != a2.Signature() {
		t.Error("identical plans must share a signature")
	}
}
