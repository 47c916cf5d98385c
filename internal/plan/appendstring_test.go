package plan_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tableset"
	"repro/internal/workload"
)

// fmtString is the fmt-based rendering String had before AppendString
// replaced it, kept as the reference the strconv version must equal.
func fmtString(b *strings.Builder, n *plan.Node) {
	if n.IsScan() {
		if n.Scan == plan.SampleScan {
			fmt.Fprintf(b, "SampleScan(t%d@%.2g)", n.TableID, n.SampleRate)
		} else {
			fmt.Fprintf(b, "%s(t%d)", n.Scan, n.TableID)
		}
		return
	}
	fmt.Fprintf(b, "%s:%d(", n.Join, n.Degree)
	fmtString(b, n.Left)
	b.WriteString(", ")
	fmtString(b, n.Right)
	b.WriteByte(')')
}

// TestAppendStringMatchesFmt renders every scan plan and every join
// alternative — each operator, degree and sampling rate — the default
// cost model emits for the TPC-H blocks and for seeded synthetic queries
// over random catalogs (whose rates need the %.2g rounding), and a few
// hand-made nodes beyond what the model offers.
func TestAppendStringMatchesFmt(t *testing.T) {
	model := costmodel.Default()
	var queries []*query.Query
	for _, blk := range workload.MustTPCHBlocks(1) {
		queries = append(queries, blk.Query)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := query.Synthetic(catalog.Random(rng, 6, 100, 1e7), 6, query.Topology(seed%4), rng)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	var plans []*plan.Node
	for _, q := range queries {
		scans := map[int][]*plan.Node{}
		q.Tables().ForEach(func(id int) {
			scans[id] = model.ScanPlans(q, id)
			plans = append(plans, scans[id]...)
		})
		// Two levels of joins over every edge: scan⋈scan, then each of
		// those alternatives joined to a neighbouring scan.
		for _, e := range q.Edges() {
			for _, l := range scans[e.A] {
				for _, r := range scans[e.B] {
					joins := model.JoinAlternatives(q, l, r)
					plans = append(plans, joins...)
					for _, e2 := range q.Edges() {
						third := e2.A
						if third == e.B {
							third = e2.B
						}
						if e2.A != e.B && e2.B != e.B || joins[0].Tables.Contains(third) {
							continue
						}
						plans = append(plans, model.JoinAlternatives(q, joins[len(joins)-1], scans[third][0])...)
					}
				}
			}
		}
	}
	for _, rate := range []float64{1, 0.999, 0.995, 0.5, 0.25, 0.015, 0.0149, 1e-4, 1e-5, 1.5e-7} {
		plans = append(plans, &plan.Node{Tables: tableset.Singleton(63), TableID: 63, Scan: plan.SampleScan, SampleRate: rate})
	}
	odd := &plan.Node{Tables: tableset.Singleton(0), Scan: plan.ScanOp(9), SampleRate: 1}
	plans = append(plans, odd, &plan.Node{Tables: tableset.Of(0, 1), Join: plan.JoinOp(7), Degree: 12, Left: odd, Right: odd})

	seen := map[string]bool{}
	prefix := []byte("kept:")
	for _, p := range plans {
		var b strings.Builder
		fmtString(&b, p)
		want := b.String()
		seen[want[:strings.IndexAny(want, "(:@")]] = true
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, fmt rendering %q", got, want)
		}
		if got := string(p.AppendString(prefix)); got != "kept:"+want {
			t.Fatalf("AppendString onto %q = %q, want %q", prefix, got, "kept:"+want)
		}
	}
	for _, op := range []string{"SeqScan", "IndexScan", "SampleScan", "HashJoin", "MergeJoin", "NestLoopJoin"} {
		if !seen[op] {
			t.Errorf("no %s among the %d rendered plans", op, len(plans))
		}
	}
	if len(plans) < 1000 {
		t.Errorf("only %d plans rendered", len(plans))
	}
}
