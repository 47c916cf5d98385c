package store

import (
	"fmt"
	"math/rand"
	"testing"
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
// store last opened.
func TestFindMatchesReference(t *testing.T) {
	type ref struct {
		canon, structFp string
		written         int // write order
		atOpen          bool
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
					rec, atOpen, ok := s.Find(TierExact, fp)
					r := live[fp]
					if ok != (r != nil) || ok && (rec.FP != fp || rec.CanonFP != r.canon || rec.StructFP != r.structFp || atOpen != r.atOpen) {
						t.Fatalf("step %d: Find(exact, %s) = %+v, at open %v, %v; want %+v", step, fp, rec, atOpen, ok, r)
					}
				}
				for _, tier := range []Tier{TierCanon, TierStruct} {
					for i := 0; i < 3; i++ {
						key := fmt.Sprintf("canon%d", i)
						if tier == TierStruct {
							key = fmt.Sprintf("struct%d", i)
						}
						want := ""
						for fp, r := range live {
							if (tier == TierCanon && r.canon == key || tier == TierStruct && r.structFp == key) &&
								(want == "" || r.written > live[want].written) {
								want = fp
							}
						}
						rec, atOpen, ok := s.Find(tier, key)
						if ok != (want != "") || ok && (rec.FP != want || atOpen != live[want].atOpen) {
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
					s.PutBlocking(fp, "canon0", "struct0", nil, foreignSnap(t))
				default:
					canon, structFp := fmt.Sprintf("canon%d", rng.Intn(3)), fmt.Sprintf("struct%d", rng.Intn(3))
					s.PutBlocking(fp, canon, structFp, rng.Perm(rng.Intn(4)), snaps.get(t, ckptBlocks[rng.Intn(len(ckptBlocks))], 0))
					writes++
					live[fp] = &ref{canon, structFp, writes, false}
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
