package costmodel

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
)

// RecostScan recomputes n.Rows and n.Cost from the statistics behind q,
// writing a freshly allocated cost vector (never the one the node
// carried — cached snapshots share vectors with live sessions, and
// re-costing must not mutate storage they observe; DESIGN.md D15). The
// closed forms are the same ones AppendScanPlans evaluates, so a scan
// re-costed under statistics S is cost-identical to a scan enumerated
// under S. n must be a scan node owned by the caller. Alternatives the
// new statistics no longer offer (an index scan after the index was
// dropped, a sampling rate that disappeared) are errors: such drift is
// structural, and callers classify it as incompatible before ever
// reaching this path.
func (m *Model) RecostScan(q *query.Query, n *plan.Node) error {
	if n == nil || !n.IsScan() {
		return fmt.Errorf("costmodel: RecostScan needs a scan node")
	}
	cat := q.Catalog()
	if n.TableID < 0 || n.TableID >= cat.NumTables() {
		return fmt.Errorf("costmodel: RecostScan: table id %d outside catalog [0,%d)", n.TableID, cat.NumTables())
	}
	tbl := cat.Table(n.TableID)
	baseRows := q.BaseRows(n.TableID)
	rows := baseRows
	var time, cores, ploss float64
	switch n.Scan {
	case plan.SeqScan:
		time, cores, ploss = tbl.Rows*tbl.RowWidth*m.params.SeqIOCost, 1, 0
	case plan.IndexScan:
		if !tbl.HasIndex {
			return fmt.Errorf("costmodel: RecostScan: table %q no longer has an index", tbl.Name)
		}
		time = baseRows*tbl.RowWidth*m.params.SeqIOCost*m.params.IndexRandomPenalty +
			math.Log2(tbl.Rows+1)*m.params.IndexLookupCost
		cores = 2
	case plan.SampleScan:
		offered := false
		for _, r := range tbl.SamplingRates {
			if r == n.SampleRate {
				offered = true
				break
			}
		}
		if !offered {
			return fmt.Errorf("costmodel: RecostScan: table %q no longer offers sampling rate %g", tbl.Name, n.SampleRate)
		}
		if m.params.PropagateSampling {
			rows = math.Max(baseRows*n.SampleRate, 1)
		}
		time = tbl.Rows*n.SampleRate*tbl.RowWidth*m.params.SeqIOCost + m.params.SampleOverhead
		cores, ploss = 1, 1-n.SampleRate
	default:
		return fmt.Errorf("costmodel: RecostScan: unknown scan op %v", n.Scan)
	}
	v := make(cost.Vector, m.space.Dim())
	m.scanCostInto(v, time, cores, ploss)
	n.Rows, n.Cost = rows, v
	return nil
}

// RecostJoin recomputes n.Rows, n.Cost and n.Order from q's statistics
// and the already re-costed children n.Left/n.Right, into a freshly
// allocated cost vector. It reuses the exact enumeration pipeline
// (NewSplit → outputRows → localWork → joinCostInto) with the
// node's pinned operator and degree, so recombining a plan DAG
// bottom-up under statistics S reproduces the costs enumeration would
// assign under S. Under value-only drift the merge keys — and hence the
// output order — are unchanged (they depend only on edge endpoints);
// topology changes never reach this path.
func (m *Model) RecostJoin(q *query.Query, n *plan.Node) error {
	if n == nil || n.IsScan() {
		return fmt.Errorf("costmodel: RecostJoin needs a join node")
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("costmodel: RecostJoin: join node missing a child")
	}
	s := m.NewSplit(q, n.Left.Tables, n.Right.Tables)
	outRows := m.outputRows(&s, n.Left, n.Right)
	work, order := m.localWork(n.Join, n.Left, n.Right, outRows, s.keyL, s.keyR)
	v := make(cost.Vector, m.space.Dim())
	m.joinCostInto(v, n.Left, n.Right, work, n.Degree)
	n.Rows, n.Cost, n.Order = outRows, v, order
	return nil
}
