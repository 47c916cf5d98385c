package service

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/eventlog"
	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/snapcodec"
)

// TestColdTierFetchOutcomes pins what a lookup does with each way the
// store's answer to a cache miss can end, through every tier: a snapshot
// is admitted; a read the disk failed is a hit without a snapshot, and
// nothing is admitted or buried — the next use reads again; a record
// that fails its checks is a hit without a snapshot and is quarantined
// at once, so the next use misses without a read; and a record the
// store no longer holds by the time it is read makes the lookup a miss.
func TestColdTierFetchOutcomes(t *testing.T) {
	snap, _ := encodedSnapshot(t, testConfig(3).Opt, "Q4")
	eio := errors.New("injected: input/output error")
	// onLoad scripts the opens of segments, which after boot only Load
	// makes.
	onLoad := func(do func() faultfs.Fault) faultfs.Script {
		return func(op faultfs.Op, path string, _ uint64) faultfs.Fault {
			if op == faultfs.OpOpen && strings.HasSuffix(path, ".moqs") {
				return do()
			}
			return faultfs.Fault{}
		}
	}
	keys := map[string]query.Keys{
		"exact": {FP: "fpA", CanonFP: "canonA"},
		"iso":   {FP: "fpIso", CanonFP: "canonA"},
		"stale": {StructFP: "structA"},
	}
	for tier, k := range keys {
		t.Run(tier, func(t *testing.T) {
			// boot starts a service on a fresh store holding one record,
			// fpA, written by the service's own process.
			boot := func() (*Service, *faultfs.Injector, string) {
				dir, inj := t.TempDir(), faultfs.NewInjector(nil)
				svc := startLife(t, dir, func(cfg *Config) { cfg.StoreOptions.FS = inj }).svc
				t.Cleanup(svc.Shutdown)
				svc.store.Put(query.Keys{FP: "fpA", CanonFP: "canonA", StructFP: "structA", Perm: []int{1, 0}}, snap, true)
				if err := svc.store.Flush(); err != nil {
					t.Fatal(err)
				}
				return svc, inj, dir
			}
			hits := func(svc *Service) uint64 {
				st := svc.cache.Stats()
				return st.ExactHits + st.IsoHits + st.StaleHits
			}

			svc, inj, _ := boot()
			lookup := func() (Hit, bool) { return svc.cache.Lookup(k, svc.cold) }
			reads := svc.obs.StoreReadsHit.Value
			inj.SetScript(onLoad(func() faultfs.Fault { return faultfs.Fault{Err: eio} }))
			for i := 1; i <= 2; i++ {
				h, ok := lookup()
				if !ok || h.Snap != nil || h.Src.FP != "fpA" || reads() != uint64(i) {
					t.Fatalf("failed read %d: hit %+v (%v) after %d reads; want a hit without snapshot, read anew", i, h, ok, reads())
				}
			}
			if st := svc.Stats(); st.Cache.Entries != 0 || hits(svc) != 2 || st.StoreReadErrors != 2 || st.Poisoned != 0 {
				t.Fatalf("after two failed reads: %+v, %d read errors, %d poisoned; want nothing admitted or buried and both hits counted",
					st.Cache, st.StoreReadErrors, st.Poisoned)
			}
			inj.SetScript(nil)
			h, ok := lookup()
			if !ok || h.Snap == nil || h.Src.FP != "fpA" || h.Origin != originReplay {
				t.Fatalf("after the disk recovered: hit %+v (%v), want the snapshot", h, ok)
			}
			if h2, ok := lookup(); !ok || h2.Snap != h.Snap || reads() != 3 {
				t.Errorf("a resident entry read again: %+v (%v), %d reads", h2, ok, reads())
			}
			if st := svc.cache.Stats(); st.Entries != 1 || st.Plans != snap.PlanCount() {
				t.Errorf("after the fetch: %+v, want the entry and the snapshot's plans", st)
			}

			svc, _, dir := boot()
			flipBit(t, onlySegment(t, dir), 0x40)
			if h, ok := svc.cache.Lookup(k, svc.cold); !ok || h.Snap != nil || h.Src.FP != "fpA" || h.Src.CanonFP != "canonA" {
				t.Fatalf("poisoned record: hit %+v (%v), want a hit without snapshot naming fpA", h, ok)
			}
			if st := svc.Stats(); st.Poisoned != 1 || st.Cache.Poisoned != 1 || st.Store.Corrupted != 1 || st.Cache.Entries != 0 {
				t.Errorf("poisoned record: %d/%d poisoned, %d corrupted, %d entries; want it quarantined at once",
					st.Poisoned, st.Cache.Poisoned, st.Store.Corrupted, st.Cache.Entries)
			}
			if h, ok := svc.cache.Lookup(k, svc.cold); ok || svc.obs.StoreReadsHit.Value() != 1 {
				t.Errorf("poisoned record, second use: hit %+v (%v) after %d reads; want a miss without a read", h, ok, svc.obs.StoreReadsHit.Value())
			}

			svc, inj, _ = boot()
			inj.SetScript(onLoad(func() faultfs.Fault {
				svc.store.Quarantine("fpA") // between the index lookup and the read
				return faultfs.Fault{Err: eio}
			}))
			if h, ok := svc.cache.Lookup(k, svc.cold); ok || h.Snap != nil || h.Src.FP != "" {
				t.Fatalf("record gone from the store: hit %+v (%v), want a miss", h, ok)
			}
			st := svc.Stats()
			if st.Cache.Entries != 0 || st.Cache.CanonEntries != 0 || st.Cache.StructEntries != 0 ||
				hits(svc) != 0 || st.Cache.Misses != 1 || st.StoreReadsHit != 1 || st.StoreReadErrors != 0 {
				t.Errorf("after the drop: %+v, %d reads, %d read errors; want no entry in any tier, no hit, one miss, one read",
					st.Cache, st.StoreReadsHit, st.StoreReadErrors)
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
// scan at boot and its first use in each way the design names
// (TestFirstUsePoisonQuarantined has the remaining one, a blob that fails
// to decode behind a valid frame). Every case serves the right frontier;
// what differs is where the session starts and what is buried:
//
//   - the filesystem fails the read (open error, read error, short
//     read): cold, nothing quarantined, nothing counted corrupt, the
//     error counted and reported — and when the failure struck the
//     hinted load at boot, the node boots all the same with nothing
//     resident, and the first use on a disk that reads again starts warm;
//   - the frame fails its checksum: cold, quarantined, tombstoned; the
//     next life adopts the checkpoint this one's shutdown leaves and
//     starts warm from the cold session's fresh export (a scan, which
//     stops at the bad frame, would have lost the rest of the segment);
//   - the record was superseded since the boot: warm, from the record
//     that is live now;
//   - the record was tombstoned since the boot: the lookup is a miss,
//     cold.
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
		// only: that is when the record is on disk and nowhere else.
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
				l.svc.store.Put(query.Keys{FP: fp, CanonFP: canonFp, StructFP: q.StructuralFingerprint(), Perm: perm}, snap, true)
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
			if st.Store.LiveRecords != 1 || st.Cache.Entries != 0 || st.Poisoned != 0 {
				t.Fatalf("after boot: %d live, cache %+v, %d poisoned; want the record live and nothing resident",
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
			wantBoot, wantHit := uint64(0), uint64(1)
			if tc.hinted {
				wantBoot = 1
			}
			if tc.name == "tombstoned" {
				wantHit = 0 // the index no longer names the record: nothing to read
			}
			if st.StoreReadsBoot != wantBoot || st.StoreReadsHit != wantHit {
				t.Errorf("store reads boot/hit %d/%d, want %d/%d", st.StoreReadsBoot, st.StoreReadsHit, wantBoot, wantHit)
			}
			if tc.name == "tombstoned" && (st.Cache.Misses != 1 || st.Cache.ExactHits != 0) {
				t.Errorf("tombstoned record: %d misses, %d exact hits; want the lookup counted as the miss it was", st.Cache.Misses, st.Cache.ExactHits)
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

// TestColdTierBeyondCapacity runs three lives on one directory whose
// store holds three times as many live records as the cache has room
// for. Every live fingerprint comes back warm as exact-replay with the
// frontier it was first served with, records the LRU evicted after
// their first use in the same life included; a record the process
// itself wrote and reads back is labeled replay, even on a
// Bootstrapped node. In each later life the hot set is resident when New
// returns, in the previous life's LRU order, and every other record's
// first use costs one store read and one decode.
func TestColdTierBeyondCapacity(t *testing.T) {
	const capacity, records = 4, 12
	var queries []*query.Query
	seen := map[string]bool{}
	for seed := int64(1); len(queries) < records; seed++ {
		q, err := query.Synthetic(catalog.TPCH(1), 3, query.Topology(seed%3), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !seen[q.Fingerprint()] {
			seen[q.Fingerprint()] = true
			queries = append(queries, q)
		}
	}
	dir := t.TempDir()
	boot := func(bootstrapped bool) *Service {
		cfg := storeConfig(t, dir)
		cfg.CacheCapacity = capacity
		cfg.Bootstrapped = bootstrapped
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Shutdown)
		return svc
	}
	want := map[string][]string{}
	serve := func(svc *Service, life int, q *query.Query, provs ...string) {
		t.Helper()
		st, frontier := convergeAndClose(t, svc, q)
		if provs != nil && !slices.Contains(provs, st.Provenance) {
			t.Errorf("life %d served %s as %s, want one of %v", life, q.Fingerprint(), st.Provenance, provs)
		}
		if w, ok := want[q.Fingerprint()]; !ok {
			want[q.Fingerprint()] = frontier
		} else if !slices.Equal(frontier, w) {
			t.Errorf("life %d served %s (%s) with another frontier than the first", life, q.Fingerprint(), st.Provenance)
		}
	}
	// reads returns the store reads and decodes first uses have paid.
	reads := func(svc *Service) [2]uint64 {
		return [2]uint64{svc.obs.StoreReadsHit.Value(), svc.obs.DecodesHit.Value()}
	}

	// Life 1 writes the records, however each first session starts
	// (synthetic queries share shapes, so some start from another's
	// record), then reads every one of them back.
	l1 := boot(true)
	for _, q := range queries {
		serve(l1, 1, q)
	}
	if err := l1.store.Flush(); err != nil {
		t.Fatal(err)
	}
	before := reads(l1)
	for _, q := range queries {
		serve(l1, 1, q, "exact-replay")
	}
	if got := reads(l1); got != [2]uint64{before[0] + records, before[1] + records} {
		t.Errorf("life 1's second round read/decoded %v after %v, want one of each per record", got, before)
	}
	hot := l1.cache.AppendUsed(nil)
	l1.Shutdown()

	for life := 2; life <= 3; life++ {
		svc := boot(false)
		if st := svc.Stats(); st.Store.LiveRecords != records || st.StoreReadsBoot != capacity || svc.obs.DecodesBoot.Value() != capacity {
			t.Fatalf("life %d booted with %d live records, %d reads and %d decodes; want %d, %d, %d",
				life, st.Store.LiveRecords, st.StoreReadsBoot, svc.obs.DecodesBoot.Value(), records, capacity, capacity)
		}
		if got := lruOrder(svc.cache); !slices.Equal(got, hot) {
			t.Errorf("life %d: resident at New's return %v, want the hot set %v in its order", life, got, hot)
		}
		// The hot set first: its records are resident and cost no read.
		var order, rest []*query.Query
		for _, q := range queries {
			if slices.Contains(hot, q.Fingerprint()) {
				order = append(order, q)
			} else {
				rest = append(rest, q)
			}
		}
		order = append(order, rest...)
		for round := 1; round <= 2; round++ {
			for _, q := range order {
				serve(svc, life, q, "exact-replay")
			}
			// Every record is evicted before its use in the second round.
			n := uint64(round*records - capacity)
			if got := reads(svc); got != [2]uint64{n, n} {
				t.Errorf("life %d, round %d: %v first-use reads and decodes, want %d of each", life, round, got, n)
			}
		}
		if st := svc.Stats(); st.Poisoned != 0 || st.StoreReadErrors != 0 || st.Cache.Misses != 0 {
			t.Errorf("life %d: %d poisoned, %d read errors, %d misses", life, st.Poisoned, st.StoreReadErrors, st.Cache.Misses)
		}
		hot = svc.cache.AppendUsed(nil)
		svc.Shutdown()
	}
}
