package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/snapcodec"
	"repro/internal/store"
)

// TestStubFetchOutcomes pins what a cache does with each way a stub's
// fetch can end, through every tier: a snapshot is installed; a record
// the store no longer holds takes the stub with it and turns the hit
// into a miss; poison is latched for the caller to quarantine; and a
// read the disk failed is neither — the hit reports no snapshot and no
// poison, the stub stays, and the next use fetches again.
func TestStubFetchOutcomes(t *testing.T) {
	snap, _ := encodedSnapshot(t, testConfig(2).Opt, "Q4")
	lookups := map[string]func(*PlanCache) (Hit, bool){
		"exact": func(c *PlanCache) (Hit, bool) { return c.Lookup("fpA", "canonA") },
		"iso":   func(c *PlanCache) (Hit, bool) { return c.Lookup("fpIso", "canonA") },
		"stale": func(c *PlanCache) (Hit, bool) { return c.LookupStale("structA") },
	}
	for tier, lookup := range lookups {
		t.Run(tier, func(t *testing.T) {
			c := NewPlanCache(4, metrics.NewRegistry())
			var fetches int
			var next error
			c.fetch = func(fp string, atBoot bool) (*core.Snapshot, error) {
				fetches++
				if fp != "fpA" || atBoot {
					t.Errorf("fetch(%q, %v), want the stub's fingerprint on a hit", fp, atBoot)
				}
				if next != nil {
					return nil, next
				}
				return snap, nil
			}
			hits := func() uint64 { st := c.Stats(); return st.ExactHits + st.IsoHits + st.StaleHits }

			c.Admit(cacheKey{"fpA", "canonA", "structA", []int{1, 0}}, "replay")
			next = fmt.Errorf("%w: injected", errStoreRead)
			for i := 1; i <= 2; i++ {
				h, ok := lookup(c)
				if !ok || h.Snap != nil || h.Poison || h.Src.fp != "fpA" || fetches != i {
					t.Fatalf("failed read %d: hit %+v (%v) after %d fetches; want a hit without snapshot or poison, fetched anew", i, h, ok, fetches)
				}
			}
			if st := c.Stats(); st.Encoded != 1 || st.Entries != 1 || hits() != 2 {
				t.Fatalf("after two failed reads: %+v, want the stub still there and both hits counted", st)
			}
			next = nil
			if h, ok := lookup(c); !ok || h.Snap != snap || h.Poison || h.Origin != "replay" {
				t.Fatalf("after the disk recovered: hit %+v (%v), want the snapshot", h, ok)
			}
			if h, ok := lookup(c); !ok || h.Snap != snap || fetches != 3 {
				t.Errorf("a resident entry fetched again: %+v (%v), %d fetches", h, ok, fetches)
			}
			if st := c.Stats(); st.Encoded != 0 || st.Plans != snap.PlanCount() {
				t.Errorf("after the fetch: %+v, want no stub and the snapshot's plans", st)
			}

			c.Admit(cacheKey{"fpA", "canonA", "structA", []int{1, 0}}, "replay")
			next, fetches = errors.New("injected: bad checksum"), 0
			for i := 0; i < 2; i++ {
				if h, ok := lookup(c); !ok || h.Snap != nil || !h.Poison || h.Src.fp != "fpA" || h.Src.canonFp != "canonA" {
					t.Fatalf("poisoned record, use %d: hit %+v (%v), want poison naming fpA", i, h, ok)
				}
			}
			if fetches != 1 {
				t.Errorf("%d fetches of a poisoned record, want the verdict latched after 1", fetches)
			}
			if !c.FetchNow("fpA") || fetches != 1 {
				t.Errorf("FetchNow on the latched stub fetched again or lost the verdict (%d fetches)", fetches)
			}
			c.Quarantine("fpA")

			c.Admit(cacheKey{"fpA", "canonA", "structA", []int{1, 0}}, "replay")
			next = fmt.Errorf("load: %w", store.ErrNotStored)
			before, missesBefore := hits(), c.Stats().Misses
			if h, ok := lookup(c); ok || h.Snap != nil || h.Src.fp != "" {
				t.Fatalf("record gone from the store: hit %+v (%v), want a miss", h, ok)
			}
			st := c.Stats()
			wantMisses := missesBefore
			if tier != "stale" { // the structural tier keeps no miss count
				wantMisses++
			}
			if st.Entries != 0 || st.Encoded != 0 || st.CanonEntries != 0 || st.StructEntries != 0 ||
				hits() != before || st.Misses != wantMisses {
				t.Errorf("after the drop: %+v; want no entry in any tier, %d hits, %d misses", st, before, wantMisses)
			}
		})
	}
}

// warnings counts the warn events whose message contains what.
func warnings(events *eventlog.Log, what string) (n int) {
	for _, ev := range events.Snapshot(0, eventlog.LevelWarn) {
		if strings.Contains(ev.Msg, what) {
			n++
		}
	}
	return n
}

// flipBit flips one bit of the byte in the middle of the file.
func flipBit(t *testing.T, path string, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// onlySegment returns the path of dir's single segment file.
func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.moqs"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, have %v (%v)", segs, err)
	}
	return segs[0]
}

// TestColdTierFaultMatrix breaks the read path between a record's
// admission as a stub and its first use in each way the design names
// (TestFirstUsePoisonQuarantined has the remaining one, a blob that fails
// to decode behind a valid frame). Every case serves the right frontier;
// what differs is where the session starts and what is buried:
//
//   - the filesystem fails the read (open error, read error, short
//     read): cold, nothing quarantined, nothing counted corrupt, the
//     error counted and reported — and when the failure struck the
//     hinted load at boot, the node boots all the same, the stub stays,
//     and its first hit on a disk that reads again starts warm;
//   - the frame fails its checksum: cold, quarantined, tombstoned; the
//     next life adopts the checkpoint this one's shutdown leaves and
//     starts warm from the cold session's fresh export (a scan, which
//     stops at the bad frame, would have lost the rest of the segment);
//   - the record was superseded since admission: warm, from the record
//     that is live now;
//   - the record was tombstoned since admission: the stub is dropped, the
//     lookup is a miss, cold.
func TestColdTierFaultMatrix(t *testing.T) {
	eio := errors.New("injected: input/output error")
	// The scan of the one small segment makes the first Open and the
	// first ReadAt of a life; whatever follows is a Load.
	failLoads := func(op faultfs.Op, fault faultfs.Fault) faultfs.Script {
		return func(o faultfs.Op, path string, seq uint64) faultfs.Fault {
			if o == op && seq > 1 && strings.HasSuffix(path, ".moqs") {
				return fault
			}
			return faultfs.Fault{}
		}
	}
	type outcome struct {
		prov                 string // of the first create
		poisoned, readErrors uint64
		next                 string // provenance in the next life
	}
	for _, tc := range []struct {
		name   string
		hinted bool // the load happens inside New
		script faultfs.Script
		// afterBoot runs between New and the first create, without a hot set
		// only: that is when the record is still a stub.
		afterBoot func(t *testing.T, l life, dir string)
		want      outcome
	}{
		{name: "open error", script: failLoads(faultfs.OpOpen, faultfs.Fault{Err: eio}),
			want: outcome{prov: "cold", readErrors: 1, next: "exact-replay"}},
		{name: "read error", script: failLoads(faultfs.OpReadAt, faultfs.Fault{Err: eio}),
			want: outcome{prov: "cold", readErrors: 1, next: "exact-replay"}},
		{name: "short read", script: failLoads(faultfs.OpReadAt, faultfs.Fault{Err: io.ErrUnexpectedEOF, TornBytes: 1000}),
			want: outcome{prov: "cold", readErrors: 1, next: "exact-replay"}},
		{name: "open error at boot", hinted: true, script: failLoads(faultfs.OpOpen, faultfs.Fault{Err: eio}),
			want: outcome{prov: "exact-replay", readErrors: 1, next: "exact-replay"}},
		{name: "short read at boot", hinted: true, script: failLoads(faultfs.OpReadAt, faultfs.Fault{Err: io.ErrUnexpectedEOF, TornBytes: 1000}),
			want: outcome{prov: "exact-replay", readErrors: 1, next: "exact-replay"}},
		{name: "flipped byte, frame not resealed", want: outcome{prov: "cold", poisoned: 1, next: "exact-replay"},
			afterBoot: func(t *testing.T, _ life, dir string) { flipBit(t, onlySegment(t, dir), 0x40) }},
		{name: "superseded", want: outcome{prov: "exact-replay", next: "exact-replay"},
			afterBoot: func(t *testing.T, l life, _ string) {
				q := testBlock(t, "Q4")
				fp := q.Fingerprint()
				canonFp, perm := q.CanonicalFingerprint()
				blob, err := l.svc.store.Load(fp)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := snapcodec.Decode(blob)
				if err != nil {
					t.Fatal(err)
				}
				l.svc.store.PutBlocking(fp, canonFp, q.StructuralFingerprint(), perm, snap)
				if err := l.svc.store.Flush(); err != nil {
					t.Fatal(err)
				}
				if st := l.svc.store.Stats(); st.Persisted != 1 || st.DeadBytes == 0 {
					t.Fatalf("the record was not superseded: %+v", st)
				}
			}},
		{name: "tombstoned", want: outcome{prov: "cold", next: "exact-replay"},
			afterBoot: func(t *testing.T, l life, _ string) {
				l.svc.store.Quarantine(testBlock(t, "Q4").Fingerprint())
				if err := l.svc.store.Flush(); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l1 := startLife(t, dir, nil)
			_, want := l1.serve("Q4")
			l1.svc.Shutdown()
			if !tc.hinted {
				if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
					t.Fatal(err)
				}
			}

			inj := faultfs.NewInjector(nil)
			inj.SetScript(tc.script)
			events := eventlog.New(eventlog.Options{})
			l2 := startLife(t, dir, func(cfg *Config) {
				cfg.Events = events
				cfg.StoreOptions.FS = inj
			})
			st := l2.svc.Stats()
			if st.Store.LiveRecords != 1 || st.Cache.Entries != 1 || st.Cache.Encoded != 1 || st.Poisoned != 0 {
				t.Fatalf("after boot: %d live, cache %+v, %d poisoned; want the record admitted and still a stub",
					st.Store.LiveRecords, st.Cache, st.Poisoned)
			}
			if tc.hinted {
				// The hinted load failed inside New; the disk reads again now.
				if st.StoreReadsBoot != 1 || st.StoreReadErrors != 1 {
					t.Fatalf("boot made %d reads with %d errors, want 1/1", st.StoreReadsBoot, st.StoreReadErrors)
				}
				inj.SetScript(nil)
			}
			if tc.afterBoot != nil {
				tc.afterBoot(t, l2, dir)
			}
			tombstonesBefore := l2.svc.store.Stats().Tombstones

			prov, frontier := l2.serve("Q4")
			if prov != tc.want.prov || !slices.Equal(frontier, want) {
				t.Errorf("served as %s (want %s), frontier equal to the healthy one: %v", prov, tc.want.prov, slices.Equal(frontier, want))
			}
			inj.SetScript(nil)
			if err := l2.svc.store.Flush(); err != nil {
				t.Fatal(err)
			}
			st = l2.svc.Stats()
			if st.Poisoned != tc.want.poisoned || st.Cache.Poisoned != tc.want.poisoned ||
				st.Store.Corrupted != tc.want.poisoned || st.Store.Tombstones-tombstonesBefore != tc.want.poisoned ||
				warnings(events, "failed to decode") != int(tc.want.poisoned) {
				t.Errorf("poisoned %d/%d, corrupted %d, %d new tombstones, %d quarantine warnings; want %d of each",
					st.Poisoned, st.Cache.Poisoned, st.Store.Corrupted, st.Store.Tombstones-tombstonesBefore,
					warnings(events, "failed to decode"), tc.want.poisoned)
			}
			if st.StoreReadErrors != tc.want.readErrors || warnings(events, "store read failed") != int(tc.want.readErrors) {
				t.Errorf("%d read errors, %d warnings; want %d of each",
					st.StoreReadErrors, warnings(events, "store read failed"), tc.want.readErrors)
			}
			wantBoot := uint64(0)
			if tc.hinted {
				wantBoot = 1
			}
			if st.StoreReadsBoot != wantBoot || st.StoreReadsHit != 1 {
				t.Errorf("store reads boot/hit %d/%d, want %d/1", st.StoreReadsBoot, st.StoreReadsHit, wantBoot)
			}
			if tc.name == "tombstoned" && (st.Cache.Misses != 1 || st.Cache.ExactHits != 0) {
				t.Errorf("dropped stub: %d misses, %d exact hits; want the lookup counted as the miss it was", st.Cache.Misses, st.Cache.ExactHits)
			}
			if st.Failed != 0 || st.Store.Degraded {
				t.Errorf("%d failed sessions, degraded %v", st.Failed, st.Store.Degraded)
			}
			// Whatever happened, the session left a healthy entry behind.
			if prov, _ := l2.serve("Q4"); prov != "exact" && prov != "exact-replay" {
				t.Errorf("second create served as %s", prov)
			}
			l2.svc.Shutdown()

			l3 := startLife(t, dir, nil)
			defer l3.svc.Shutdown()
			if prov, frontier := l3.serve("Q4"); prov != tc.want.next || !slices.Equal(frontier, want) {
				t.Errorf("next life served Q4 as %s (want %s), frontier equal: %v", prov, tc.want.next, slices.Equal(frontier, want))
			}
			if st := l3.svc.Stats(); st.Poisoned != 0 || st.StoreReadErrors != 0 {
				t.Errorf("next life: poisoned %d, %d read errors", st.Poisoned, st.StoreReadErrors)
			}
		})
	}
}

// TestSegmentDamageBetweenLives is TestHintThreeGenerations with the
// damage done to the segment instead of the checkpoint: deleted, cut in
// half or bit-flipped between lives 2 and 3 — with the hot set still naming
// records that may be gone — the third life boots, and every session
// succeeds with life 1's frontier. Damage to the log decides only which
// sessions start warm. A halved or deleted segment no longer matches the
// checkpoint, so the boot scans what is left; a flipped bit inside a
// frame leaves the checkpoint's last-frame header intact, so the boot
// adopts the index and Load finds the damaged frame at its first use:
// that one record is quarantined and its session starts cold.
func TestSegmentDamageBetweenLives(t *testing.T) {
	for _, tc := range []struct {
		name         string
		damage       func(t *testing.T, seg string)
		wantWarm     int    // of life 3's three sessions
		wantPoisoned uint64 // records life 3 quarantined
	}{
		{"intact", func(*testing.T, string) {}, 3, 0},
		{"deleted", func(t *testing.T, seg string) {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}, 0, 0},
		{"cut in half", func(t *testing.T, seg string) {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, -1, 0},
		{"bit-flipped", func(t *testing.T, seg string) { flipBit(t, seg, 0x08) }, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l1 := startLife(t, dir, nil)
			want := map[string][]string{}
			for _, b := range hintBlocks {
				_, want[b] = l1.serve(b)
			}
			l1.svc.Shutdown()
			l2 := startLife(t, dir, nil)
			if prov, _ := l2.serve("Q4"); prov != "exact-replay" {
				t.Fatalf("life 2 served Q4 as %s", prov)
			}
			l2.svc.Shutdown()

			tc.damage(t, onlySegment(t, dir))
			l3 := startLife(t, dir, nil)
			defer l3.svc.Shutdown()
			warm := 0
			for _, b := range hintBlocks {
				prov, frontier := l3.serve(b)
				switch prov {
				case "exact-replay":
					warm++
				case "cold":
				default:
					t.Errorf("life 3 served %s as %s", b, prov)
				}
				if !slices.Equal(frontier, want[b]) {
					t.Errorf("life 3's frontier of %s (%s) differs from life 1's", b, prov)
				}
			}
			if tc.wantWarm >= 0 && warm != tc.wantWarm {
				t.Errorf("%d of 3 sessions started warm, want %d", warm, tc.wantWarm)
			}
			if tc.wantWarm < 0 && (warm == 0 || warm == 3) {
				t.Errorf("%d of 3 sessions started warm: the damage took everything or nothing", warm)
			}
			if st := l3.svc.Stats(); st.Failed != 0 || st.Poisoned != tc.wantPoisoned || st.StoreReadErrors != 0 {
				t.Errorf("life 3: %d failed, %d poisoned (want %d), %d read errors", st.Failed, st.Poisoned, tc.wantPoisoned, st.StoreReadErrors)
			}
		})
	}
}
