package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/prune_outcome.golden from the current code (only to record a deliberate behaviour change)")

// componentMedian is the per-metric median of the plans' cost vectors —
// a bounds vector that does not depend on result enumeration order.
func componentMedian(o *Optimizer, r int) cost.Vector {
	plans := o.Results(nil, r)
	dim := o.cfg.Model.Space().Dim()
	out := cost.NewVector(dim)
	col := make([]float64, len(plans))
	for d := 0; d < dim; d++ {
		for i, p := range plans {
			col[i] = p.Cost[d]
		}
		sort.Float64s(col)
		out[d] = col[len(col)/2]
	}
	return out
}

// resultDigest hashes the sorted signatures of every stored result plan
// of every table subset.
func resultDigest(o *Optimizer) string {
	var sigs []string
	for _, subs := range o.subsetsBySize {
		for _, sub := range subs {
			for _, p := range o.ResultsFor(sub, nil, o.cfg.MaxResolution()) {
				sigs = append(sigs, p.Signature())
			}
		}
	}
	sort.Strings(sigs)
	h := sha256.New()
	for _, s := range sigs {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPruneOutcomeGolden pins every observable outcome of the inner loop
// — what is generated, what each prune call decides, what the plan sets
// hold — invocation by invocation, to values recorded before the inner
// loop was optimised. A change to enumeration or pruning that is meant
// to be a pure optimisation must leave this file's golden untouched.
func TestPruneOutcomeGolden(t *testing.T) {
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
	var got bytes.Buffer
	for _, qc := range queries {
		for _, cc := range configs {
			cfg := defaultConfig()
			cc.set(&cfg)
			rM := cfg.MaxResolution()
			var o *Optimizer
			var prev Stats
			regime := func(label string, b cost.Vector, upTo int) {
				for r := 0; r <= upTo; r++ {
					o.Optimize(b, r)
					d := o.Stats().Minus(prev)
					prev = o.Stats()
					fmt.Fprintf(&got, "%s/%s/%s/r%d plans=%d pairs=%d prune=%d resIns=%d candIns=%d discard=%d exactDom=%d res=%d cand=%d digest=%s\n",
						qc.name, cc.name, label, r,
						d.PlansGenerated, d.PairsCombined, d.PruneCalls, d.ResultInserts,
						d.CandidateInserts, d.CandidateDiscards, d.ExactDominated,
						o.ResultCount(), o.CandidateCount(), resultDigest(o))
				}
			}
			// drag plays tight bounds taken from the frontier at
			// resolution r, one relax, then no bounds.
			drag := func(prefix string, r int) {
				b := componentMedian(o, r).Scale(0.7)
				regime(prefix+"tighten", b, rM)
				regime(prefix+"relax", b.Scale(1.6), rM)
				regime(prefix+"unbounded", nil, rM)
			}

			// The cold series: refine to the target, then drag (every
			// pair is combined by then, so the drag must be free).
			o, prev = MustNewOptimizer(qc.q, cfg), Stats{}
			regime("refine", nil, rM)
			drag("", rM)

			// The interactive series: drag from the first frontier on,
			// so bounded pruning, candidate parking and promotion on
			// relax do the work.
			o, prev = MustNewOptimizer(qc.q, cfg), Stats{}
			regime("first", nil, 0)
			drag("first-", 0)
		}
	}

	path := filepath.Join("testdata", "prune_outcome.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte{'\n'})
	wantLines := bytes.Split(want, []byte{'\n'})
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
