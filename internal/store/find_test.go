package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// TestFindMatchesReference drives a seeded stream of Puts over six
// fingerprints and three canonical and three structural classes —
// re-persists that keep or move a fingerprint's classes, Quarantines,
// records of another configuration that the store rejects — through
// 40 KB segments that roll over and compact, reopening the store through
// its checkpoint and through a full scan (checkpoint deleted). After
// every step Find must answer every key as the reference kept here
// does: a fingerprint's live record, a class's most recently written
// live record or nothing, and whether that record was on disk when the
// store last opened. The record's keys must be the ones it was put
// under, its random permutation included, through the scan, the
// checkpoint and compaction.
func TestFindMatchesReference(t *testing.T) {
	type ref struct {
		keys    query.Keys
		written int // write order
		atOpen  bool
	}
	snaps := ckptSnapshots{}
	opts := func(o *Options) { o.MaxSegmentBytes = 40 << 10; o.MinCompactBytes = 1 }
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := openTestStore(t, dir, opts)
			live := map[string]*ref{}
			writes, maxSegments := 0, 0
			var compactions uint64
			check := func(step int) {
				t.Helper()
				for i := 0; i < 6; i++ {
					fp := fmt.Sprintf("fp%d", i)
					rec, atOpen, ok := s.Find(query.TierExact, fp)
					r := live[fp]
					if ok != (r != nil) || ok && (!rec.Keys.Equal(&r.keys) || atOpen != r.atOpen) {
						t.Fatalf("step %d: Find(exact, %s) = %+v, at open %v, %v; want %+v", step, fp, rec, atOpen, ok, r)
					}
				}
				for _, tier := range []query.Tier{query.TierCanon, query.TierStruct} {
					for i := 0; i < 3; i++ {
						key := fmt.Sprintf("canon%d", i)
						if tier == query.TierStruct {
							key = fmt.Sprintf("struct%d", i)
						}
						want := ""
						for fp, r := range live {
							if r.keys.Key(tier) == key && (want == "" || r.written > live[want].written) {
								want = fp
							}
						}
						rec, atOpen, ok := s.Find(tier, key)
						if ok != (want != "") || ok && (!rec.Keys.Equal(&live[want].keys) || atOpen != live[want].atOpen) {
							t.Fatalf("step %d: Find(%d, %s) = %s, at open %v, %v; want %q", step, tier, key, rec.FP, atOpen, ok, want)
						}
					}
				}
			}
			for step := 0; step < 160; step++ {
				fp := fmt.Sprintf("fp%d", rng.Intn(6))
				switch k := rng.Intn(10); {
				case k == 0:
					s.Quarantine(fp)
					delete(live, fp)
				case k == 1:
					// Rejected at append: fp's live record, if any, stays.
					s.Put(query.Keys{FP: fp, CanonFP: "canon0", StructFP: "struct0"}, foreignSnap(t), true)
				default:
					k := query.Keys{FP: fp, CanonFP: fmt.Sprintf("canon%d", rng.Intn(3)), StructFP: fmt.Sprintf("struct%d", rng.Intn(3)),
						Perm: rng.Perm(rng.Intn(4))}
					s.Put(k, snaps.get(t, ckptBlocks[rng.Intn(len(ckptBlocks))], 0), true)
					writes++
					live[fp] = &ref{k, writes, false}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				maxSegments = max(maxSegments, st.Segments)
				if step%40 == 39 {
					compactions += st.Compactions
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if step%80 == 79 {
						dropCheckpoint(t, dir)
					}
					s = openTestStore(t, dir, opts)
					for _, r := range live {
						r.atOpen = true
					}
				}
				check(step)
			}
			compactions += s.Stats().Compactions
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if compactions == 0 || maxSegments < 2 {
				t.Errorf("the stream lost its coverage: %d compactions, at most %d segments", compactions, maxSegments)
			}
		})
	}
}
