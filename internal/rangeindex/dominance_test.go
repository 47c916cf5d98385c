package rangeindex

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// visitorDominance is the reference Dominance must agree with: the
// verdict the optimizer's prune reached by handing every entry of a
// Query box to a visitor. An entry covers p when its order covers p's
// (any entry does when orderAware is false); the first covering entry
// stops the walk under stopAtCover, else the first that also produces
// no more rows and dominates p's cost does. visited counts the covering
// entries the visitor saw.
func visitorDominance(ix *Index, b cost.Vector, maxRes int, p *plan.Node, orderAware, stopAtCover bool) (exact *plan.Node, covered bool, visited int) {
	ix.Query(b, maxRes, 0, func(e Entry) bool {
		q := e.Payload
		if orderAware && !q.Order.Covers(p.Order) {
			return true
		}
		visited++
		covered = true
		if stopAtCover {
			return false
		}
		if redundantRef(q, p, orderAware) {
			exact = q
			return false
		}
		return true
	})
	return exact, covered, visited
}

// redundantRef is the optimizer's redundancy relation: q stands in for p
// when its order covers p's (unless order is ignored), it produces no
// more rows, and its cost dominates p's.
func redundantRef(q, p *plan.Node, orderAware bool) bool {
	return q.Rows <= p.Rows && (!orderAware || q.Order.Covers(p.Order)) && q.Cost.Dominates(p.Cost)
}

// domOrders are the orders of the random plans: OrderNone, three table
// orders, and two at 64 and above whose mask bits alias OrderNone's and
// order 1's.
var domOrders = []plan.Order{plan.OrderNone, 1, 2, 5, 64, 65}

// randomPlan draws a plan whose cost clusters around a few points (so
// that cells mix orders and dominance is frequent), with one of a few
// row counts and one of domOrders.
func randomPlan(rng *rand.Rand) *plan.Node {
	c := cost.NewVector(3)
	for d := range c {
		c[d] = float64(1+rng.Intn(4)) * (1 + 0.2*rng.Float64())
	}
	return &plan.Node{
		Rows:  float64(100 * (1 + rng.Intn(3))),
		Order: domOrders[rng.Intn(len(domOrders))],
		Cost:  c,
	}
}

// TestDominanceMatchesVisitor checks the dominance probe against the
// visitor over Query it replaces: on seeded random plan sets, for
// random boxes, every maxRes and all four (orderAware, stopAtCover)
// pairs, the two must reach the same verdict — the same exact plan,
// the same covered flag, the same number of covering entries seen — on
// a live index, on an index that adopted the Freeze image of its
// enumeration, and on both after a partial Drain. A returned exact plan
// must make the probed plan redundant.
func TestDominanceMatchesVisitor(t *testing.T) {
	const levels = 5
	rng := rand.New(rand.NewSource(50))
	probes, exacts := 0, 0
	for trial := 0; trial < 40; trial++ {
		base := 1.15
		if trial%2 == 1 {
			base = 2 // coarser cells mix more orders
		}
		live := MustNew(3, levels-1, base)
		for i := 0; i < 50+rng.Intn(300); i++ {
			p := randomPlan(rng)
			live.Insert(Entry{Cost: p.Cost, Resolution: rng.Intn(levels), Epoch: uint64(i), Payload: p})
		}
		adopted := MustNew(3, levels-1, base)
		adopted.Adopt(MustNew(3, levels-1, base).Freeze(allOf(live)))
		drainedLive := MustNew(3, levels-1, base)
		for _, e := range allOf(live) {
			drainedLive.Insert(e)
		}
		drainedAdopted := MustNew(3, levels-1, base)
		drainedAdopted.Adopt(adopted.Frozen())
		cut := randomPlan(rng).Cost
		if n, m := len(drainedLive.Drain(cut, levels-1, nil)), len(drainedAdopted.Drain(cut, levels-1, nil)); n != m {
			t.Fatalf("trial %d: the live twin drained %d entries, the adopted one %d", trial, n, m)
		}
		for _, ix := range []struct {
			name string
			ix   *Index
		}{{"live", live}, {"adopted", adopted}, {"drained", drainedLive}, {"adopted+drained", drainedAdopted}} {
			for k := 0; k < 60; k++ {
				p := randomPlan(rng)
				b := p.Cost.Scale(1 + 0.3*rng.Float64())
				if k%3 == 0 {
					b = b.Min(randomPlan(rng).Cost.Scale(1.5))
				}
				for maxRes := 0; maxRes < levels; maxRes++ {
					for _, mode := range [4][2]bool{{true, false}, {true, true}, {false, false}, {false, true}} {
						orderAware, stopAtCover := mode[0], mode[1]
						wantExact, wantCovered, wantVisited := visitorDominance(ix.ix, b, maxRes, p, orderAware, stopAtCover)
						exact, covered, visited := ix.ix.Dominance(b, maxRes, p, orderAware, stopAtCover)
						probes++
						if exact != wantExact || covered != wantCovered || visited != wantVisited {
							t.Fatalf("trial %d %s: probe %v rows %g order %d, box %v, maxRes %d, orderAware %v, stopAtCover %v: "+
								"exact %p covered %v visited %d; visitor %p %v %d",
								trial, ix.name, p.Cost, p.Rows, p.Order, b, maxRes, orderAware, stopAtCover,
								exact, covered, visited, wantExact, wantCovered, wantVisited)
						}
						if exact != nil {
							exacts++
							if !redundantRef(exact, p, orderAware) || !exact.Cost.Dominates(b) {
								t.Fatalf("trial %d %s: exact plan %v (rows %g, order %d) does not make %v (rows %g, order %d) redundant within %v",
									trial, ix.name, exact.Cost, exact.Rows, exact.Order, p.Cost, p.Rows, p.Order, b)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d probes, %d exact verdicts", probes, exacts)
	if exacts == 0 || exacts == probes {
		t.Fatalf("%d of %d probes found an exact dominator: the plan sets do not exercise both verdicts", exacts, probes)
	}
}

// TestDominanceTrustsOrderMask pins what the probe reads: a cell whose
// order mask lacks an ordered plan's order is passed over without
// reading its payloads. The mask records the orders the cell's payloads
// had when they were inserted or frozen, and is carried through Adopt,
// the copy-on-write of a level, and compaction after a Drain; a payload
// whose order is rewritten behind the index's back goes unseen.
func TestDominanceTrustsOrderMask(t *testing.T) {
	p := &plan.Node{Rows: 100, Order: 7, Cost: cost.Vec(10, 10)}
	b := p.Cost.Scale(1.1)
	build := func() (*Index, *plan.Node) {
		ix := MustNew(2, 1, 2)
		// A cell of its own, far below the box, drained later to make
		// the level compact.
		ix.Insert(Entry{Cost: cost.Vec(0, 0), Resolution: 0, Payload: &plan.Node{Order: 3}})
		q := &plan.Node{Rows: 50, Order: 5, Cost: cost.Vec(9, 9)}
		ix.Insert(Entry{Cost: q.Cost, Resolution: 0, Payload: q})
		return ix, q
	}
	live, q := build()
	if exact, covered, _ := live.Dominance(b, 1, p, true, false); exact != nil || covered {
		t.Fatal("a plan of order 5 covers a plan of order 7")
	}
	q.Order = 7 // rewritten after insertion: the cell's mask still says 5
	if exact, covered, _ := live.Dominance(b, 1, p, true, false); exact != nil || covered {
		t.Error("live index: the probe read a cell whose mask lacks the order")
	}
	if _, covered, _ := live.Dominance(b, 1, p, false, false); !covered {
		t.Error("live index: the probe ignoring order found nothing in the box")
	}

	frozen, q := build()
	img := MustNew(2, 1, 2).Freeze(allOf(frozen))
	q.Order = 7
	adopted := MustNew(2, 1, 2)
	adopted.Adopt(img)
	if _, covered, _ := adopted.Dominance(b, 1, p, true, false); covered {
		t.Error("adopted image: the probe read a cell whose mask lacks the order")
	}
	adopted.Insert(Entry{Cost: cost.Vec(100, 100), Resolution: 0, Payload: &plan.Node{Order: 7}}) // thaws the level
	if _, covered, _ := adopted.Dominance(b, 1, p, true, false); covered {
		t.Error("thawed level: the probe read a cell whose mask lacks the order")
	}
	if got := adopted.Drain(cost.Vec(1, 1), 1, nil); len(got) != 1 {
		t.Fatalf("drained %d entries, want 1", len(got))
	}
	if _, covered, _ := adopted.Dominance(b, 1, p, true, false); covered {
		t.Error("compacted level: the probe read a cell whose mask lacks the order")
	}
}

// TestNilPayloadEntries: Insert and Freeze accept entries without a
// payload (the end-to-end benchmark's index probe inserts bare cost
// vectors), and Query retrieves them.
func TestNilPayloadEntries(t *testing.T) {
	ix := MustNew(2, 1, 2)
	for i := 0; i < 10; i++ {
		ix.Insert(Entry{Cost: cost.Vec(float64(i), float64(10-i)), Resolution: i % 2, Epoch: 1})
	}
	img := MustNew(2, 1, 2).Freeze(allOf(ix))
	if img == nil {
		t.Fatal("Freeze refused a list of nil payloads")
	}
	adopted := MustNew(2, 1, 2)
	adopted.Adopt(img)
	for _, x := range []*Index{ix, adopted} {
		if got := collect(x, cost.Unbounded(2), 1, 0); len(got) != 10 {
			t.Errorf("Query retrieved %d of 10 entries", len(got))
		}
	}
}
