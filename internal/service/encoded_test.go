package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/eventlog"
	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/snapcodec"
	"repro/internal/store"
	"repro/internal/workload"
)

// checkpointFile is the store's checkpoint file name: part of the
// on-disk layout, so pinned here rather than exported. Deleting it makes
// the next boot scan the whole log and fetch nothing before ready.
const checkpointFile = "checkpoint.moqc"

// encodedSnapshot converges block under cfg and returns the snapshot
// with its wire form.
func encodedSnapshot(t testing.TB, cfg core.Config, block string) (*core.Snapshot, []byte) {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), block)
	if !ok {
		t.Fatalf("unknown block %s", block)
	}
	opt := core.MustNewOptimizer(blk.Query, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	snap := opt.Snapshot()
	blob, err := snapcodec.Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return snap, blob
}

// lruOrder lists the resident fingerprints, most recently used first.
func lruOrder(c *PlanCache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fps []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		fps = append(fps, el.Value.(*cacheItem).FP)
	}
	return fps
}

// TestDecodeOnceConcurrentFirstHits: 16 goroutines first-using one
// store record through all three tiers produce one fetch — one load, one
// decode — and 16 usable snapshots, and the fetch runs outside the cache
// mutex: while it is parked, a lookup of another fingerprint and a Stats
// call both complete.
func TestDecodeOnceConcurrentFirstHits(t *testing.T) {
	snap, _ := encodedSnapshot(t, testConfig(3).Opt, "Q4")
	inj := faultfs.NewInjector(nil)
	svc := startLife(t, t.TempDir(), func(cfg *Config) { cfg.StoreOptions.FS = inj }).svc
	defer svc.Shutdown()
	svc.store.Put(query.Keys{FP: "fpA", CanonFP: "canonA", StructFP: "structA", Perm: []int{1, 0}}, snap, true)
	if err := svc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	c := svc.cache
	c.Put(query.Keys{FP: "fpB", CanonFP: "canonB"}, &core.Snapshot{})
	var opens atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	inj.SetScript(func(op faultfs.Op, path string, _ uint64) faultfs.Fault {
		if op == faultfs.OpOpen && strings.HasSuffix(path, ".moqs") && opens.Add(1) == 1 {
			close(entered)
			<-release
		}
		return faultfs.Fault{}
	})

	const hitters = 16
	hits := make([]Hit, hitters)
	var wg sync.WaitGroup
	for i := 0; i < hitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := [...]query.Keys{{FP: "fpA", CanonFP: "canonA"}, {FP: "fpIso", CanonFP: "canonA"}, {StructFP: "structA"}}[i%3]
			var ok bool
			if hits[i], ok = c.Lookup(k, svc.cold); !ok {
				t.Errorf("hitter %d missed", i)
			}
		}(i)
	}
	<-entered
	other := make(chan bool)
	go func() {
		_, ok := c.Lookup(query.Keys{FP: "fpB", CanonFP: "canonB"}, svc.cold)
		c.Stats()
		other <- ok
	}()
	select {
	case ok := <-other:
		if !ok {
			t.Error("lookup of the other fingerprint missed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a lookup of another fingerprint blocked behind the fetch: it runs under the cache mutex")
	}
	close(release)
	wg.Wait()

	if l, d := svc.obs.StoreReadsHit.Value(), svc.obs.DecodesHit.Value(); l != 1 || d != 1 {
		t.Errorf("%d loads and %d decodes for one record, want 1 and 1", l, d)
	}
	for i, h := range hits {
		if h.Snap == nil || h.Snap != hits[0].Snap || h.Src.FP != "fpA" || h.Origin != originReplay {
			t.Errorf("hitter %d got %+v, want the one fetched snapshot of fpA", i, h)
		}
	}
	st := c.Stats()
	if st.Plans != snap.PlanCount() {
		t.Errorf("after the fetch: %d plans, want %d", st.Plans, snap.PlanCount())
	}
	if st.ExactHits != 7 || st.IsoHits != 5 || st.StaleHits != 5 {
		t.Errorf("hits exact/iso/stale = %d/%d/%d, want 7/5/5", st.ExactHits, st.IsoHits, st.StaleHits)
	}
}

// life is one service generation on a store directory.
type life struct {
	t   *testing.T
	svc *Service
}

func startLife(t *testing.T, dir string, mutate func(*Config)) life {
	t.Helper()
	cfg := storeConfig(t, dir)
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("boot on %s: %v", dir, err)
	}
	return life{t, svc}
}

// serve converges block and returns its provenance and rendered
// frontier.
func (l life) serve(block string) (string, []string) {
	l.t.Helper()
	st, frontier := convergeAndClose(l.t, l.svc, testBlock(l.t, block))
	return st.Provenance, frontier
}

// wantResidency checks the decodes made before New returned, the
// decodes first hits paid since, and the live records only the store
// holds — and that every decode had its one read of the store, counted
// the same way.
func (l life) wantResidency(boot, hit uint64, cold int) {
	l.t.Helper()
	if err := l.svc.store.Flush(); err != nil {
		l.t.Fatal(err)
	}
	st := l.svc.Stats()
	if b, h := l.svc.obs.DecodesBoot.Value(), l.svc.obs.DecodesHit.Value(); b != boot || h != hit || st.Store.LiveRecords-st.Cache.Entries != cold {
		l.t.Errorf("decodes boot/hit %d/%d, %d records on disk only; want %d/%d, %d", b, h, st.Store.LiveRecords-st.Cache.Entries, boot, hit, cold)
	}
	if st.StoreReadsBoot != boot || st.StoreReadsHit != hit || st.StoreReadErrors != 0 {
		l.t.Errorf("store reads boot/hit %d/%d, %d errors; want %d/%d, 0",
			st.StoreReadsBoot, st.StoreReadsHit, st.StoreReadErrors, boot, hit)
	}
}

// writeHotSet replaces dir's checkpoint with one whose hot set is fps,
// written under the given config echo by a store opened on dir and
// closed the way Shutdown closes it.
func writeHotSet(t testing.TB, dir, echo string, fps []string) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, CfgEcho: echo})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(fps...); err != nil {
		t.Fatal(err)
	}
}

// mutateCheckpoint rewrites dir's checkpoint file through fn.
func mutateCheckpoint(t *testing.T, dir string, fn func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

var hintBlocks = []string{"Q4", "Q13", "Q14"}

// TestHintThreeGenerations follows a working set through three lives on
// one directory. Life 1 converges A, B and C; life 2 boots with all
// three resident (all were Put) and uses only A; life 3 boots with A
// resident and B, C left in the store, and a first hit on B reports
// exact-replay with life 1's frontier. Each life's hot set rides in the
// checkpoint its shutdown leaves, and a boot behind a clean shutdown
// scans nothing. The checkpoint is advice only: with the file deleted,
// truncated or bit-flipped between lives 2 and 3 every answer,
// provenance and success is the same — the boot scans the log, and reads
// and decodes just move from boot to first hit.
func TestHintThreeGenerations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		damage   func(t *testing.T, dir string)
		wantBoot uint64 // life 3's decodes before ready
	}{
		{"intact", func(*testing.T, string) {}, 1},
		{"deleted", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"truncated", func(t *testing.T, dir string) {
			mutateCheckpoint(t, dir, func(b []byte) []byte { return b[:len(b)/2] })
		}, 0},
		{"bit-flipped", func(t *testing.T, dir string) {
			mutateCheckpoint(t, dir, func(b []byte) []byte { b[len(b)-3] ^= 0x10; return b })
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l1 := startLife(t, dir, nil)
			want := map[string][]string{}
			for _, b := range hintBlocks {
				prov, frontier := l1.serve(b)
				if prov != "cold" {
					t.Fatalf("life 1 served %s as %s", b, prov)
				}
				want[b] = frontier
			}
			l1.wantResidency(0, 0, 0)
			l1.svc.Shutdown()

			l2 := startLife(t, dir, nil)
			l2.wantResidency(3, 0, 0)
			if st := l2.svc.Stats().Store; st.ScanBytes != 0 || st.AdoptedRecords != 3 {
				t.Errorf("life 2 scanned %d bytes and adopted %d records; want 0 and 3", st.ScanBytes, st.AdoptedRecords)
			}
			if prov, frontier := l2.serve("Q4"); prov != "exact-replay" || !slices.Equal(frontier, want["Q4"]) {
				t.Errorf("life 2 served Q4 as %s, frontier equal: %v", prov, slices.Equal(frontier, want["Q4"]))
			}
			l2.wantResidency(3, 0, 0)
			l2.svc.Shutdown()

			tc.damage(t, dir)
			l3 := startLife(t, dir, nil)
			defer l3.svc.Shutdown()
			l3.wantResidency(tc.wantBoot, 0, 3-int(tc.wantBoot))
			if scanned := l3.svc.Stats().Store.ScanBytes; (scanned == 0) != (tc.wantBoot == 1) {
				t.Errorf("life 3 scanned %d bytes", scanned)
			}
			for _, b := range []string{"Q4", "Q13"} {
				if prov, frontier := l3.serve(b); prov != "exact-replay" || !slices.Equal(frontier, want[b]) {
					t.Errorf("life 3 served %s as %s, frontier equal to life 1's: %v", b, prov, slices.Equal(frontier, want[b]))
				}
			}
			// Q14 was never touched: still in the store. Every other fetch
			// happened exactly once, at boot or at the first hit.
			l3.wantResidency(tc.wantBoot, 2-tc.wantBoot, 1)
			if st := l3.svc.Stats(); st.WarmStarts != 2 || st.Cache.ExactHits != 2 || st.Poisoned != 0 || st.Store.Corrupted != 0 {
				t.Errorf("life 3: %d warm starts, %d exact hits, %d poisoned, %d corrupted; want 2/2/0/0",
					st.WarmStarts, st.Cache.ExactHits, st.Poisoned, st.Store.Corrupted)
			}
		})
	}
}

// TestHintFaultMatrix breaks the checkpoint that carries the hot set in
// every way the design names — at the write (torn write, failed rename,
// store degraded at shutdown) and at rest (absent, garbage, foreign
// configuration, a hot set of dead names) — and requires the same of
// every case: the next life boots, fetches before New returns no more
// than hot set ∩ live, and serves the persisted query warm as
// exact-replay. A failed write leaves the previous life's checkpoint,
// which still covers the log: that boot scans nothing. An unusable one
// costs a scan of the whole log.
func TestHintFaultMatrix(t *testing.T) {
	echo, err := core.ConfigFingerprint(storeConfig(t, "").Opt)
	if err != nil {
		t.Fatal(err)
	}
	q4 := testBlock(t, "Q4").Fingerprint()
	enospc := errors.New("injected: no space left on device")
	onCheckpoint := func(op faultfs.Op, fault faultfs.Fault) faultfs.Script {
		return func(o faultfs.Op, path string, _ uint64) faultfs.Fault {
			if o == op && strings.Contains(path, checkpointFile) {
				return fault
			}
			return faultfs.Fault{}
		}
	}
	for _, tc := range []struct {
		name string
		// atRest damages the checkpoint the clean first life left (hot
		// set: all three blocks); script instead faults a second life's
		// shutdown, which used only Q4, so that life's checkpoint never
		// replaces the first's.
		atRest   func(t *testing.T, dir string)
		script   faultfs.Script
		degrade  bool
		wantBoot uint64
		wantScan bool // the last life's boot reads the log
	}{
		{name: "absent", wantBoot: 0, wantScan: true, atRest: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "garbage", wantBoot: 0, wantScan: true, atRest: func(t *testing.T, dir string) {
			mutateCheckpoint(t, dir, func(b []byte) []byte {
				rand.New(rand.NewSource(3)).Read(b)
				return b
			})
		}},
		{name: "flipped byte", wantBoot: 0, wantScan: true, atRest: func(t *testing.T, dir string) {
			mutateCheckpoint(t, dir, func(b []byte) []byte { b[9] ^= 0x01; return b })
		}},
		{name: "foreign config echo", wantBoot: 0, wantScan: true, atRest: func(t *testing.T, dir string) {
			writeHotSet(t, dir, "3x9|some-other-build", []string{q4})
		}},
		{name: "only dead fingerprints", wantBoot: 0, atRest: func(t *testing.T, dir string) {
			writeHotSet(t, dir, echo, []string{"gone-1", "gone-2"})
		}},
		{name: "one live among dead", wantBoot: 1, atRest: func(t *testing.T, dir string) {
			writeHotSet(t, dir, echo, []string{"gone-1", q4, "gone-2", q4})
		}},
		{name: "torn write", wantBoot: 3,
			script: onCheckpoint(faultfs.OpWrite, faultfs.Fault{Err: enospc, TornBytes: 11})},
		{name: "failed rename", wantBoot: 3,
			script: onCheckpoint(faultfs.OpRename, faultfs.Fault{Err: enospc})},
		{name: "degraded at shutdown", wantBoot: 3, degrade: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l1 := startLife(t, dir, nil)
			var want []string
			for _, b := range hintBlocks {
				_, frontier := l1.serve(b)
				if b == "Q4" {
					want = frontier
				}
			}
			l1.svc.Shutdown()

			if tc.atRest != nil {
				tc.atRest(t, dir)
			} else {
				inj := faultfs.NewInjector(nil)
				l2 := startLife(t, dir, func(cfg *Config) {
					cfg.StoreOptions.FS = inj
					cfg.StoreOptions.FailThreshold = 1
				})
				l2.serve("Q4")
				if tc.degrade {
					// One failed append flips the store degraded; the new
					// query's record is lost, which is degraded mode's deal.
					inj.FailOps(enospc, faultfs.OpWrite, faultfs.OpSync)
					l2.serve("Q3")
					for deadline := time.Now().Add(10 * time.Second); !l2.svc.Stats().Store.Degraded; {
						if time.Now().After(deadline) {
							t.Fatal("store never entered degraded mode")
						}
						time.Sleep(time.Millisecond)
					}
					checkpointOps := 0
					inj.SetScript(func(op faultfs.Op, path string, _ uint64) faultfs.Fault {
						if strings.Contains(path, checkpointFile) {
							checkpointOps++
						}
						return faultfs.Fault{Err: enospc}
					})
					l2.svc.Shutdown()
					if checkpointOps != 0 {
						t.Errorf("a degraded store made %d filesystem calls for the checkpoint, want none", checkpointOps)
					}
				} else {
					inj.SetScript(tc.script)
					l2.svc.Shutdown()
				}
			}

			l3 := startLife(t, dir, nil)
			defer l3.svc.Shutdown()
			st := l3.svc.Stats()
			if st.Store.Loaded != 3 || st.Cache.Entries != int(tc.wantBoot) {
				t.Fatalf("last life loaded %d records, %d resident, want 3/%d", st.Store.Loaded, st.Cache.Entries, tc.wantBoot)
			}
			l3.wantResidency(tc.wantBoot, 0, 3-int(tc.wantBoot))
			if (st.Store.ScanBytes > 0) != tc.wantScan {
				t.Errorf("last boot scanned %d bytes, want a scan: %v", st.Store.ScanBytes, tc.wantScan)
			}
			prov, frontier := l3.serve("Q4")
			if prov != "exact-replay" || !slices.Equal(frontier, want) {
				t.Errorf("served Q4 as %s, frontier equal to the first life's: %v", prov, slices.Equal(frontier, want))
			}
			if st := l3.svc.Stats(); st.WarmStarts != 1 || st.Poisoned != 0 || st.Store.Corrupted != 0 {
				t.Errorf("%d warm starts, %d poisoned, %d corrupted; want 1/0/0", st.WarmStarts, st.Poisoned, st.Store.Corrupted)
			}
		})
	}
}

// TestFirstUsePoisonQuarantined plants a record the scan accepts — frame
// CRC valid, codec header compatible — whose blob does not decode: one
// interior byte flipped, the frame resealed, the codec's own trailer
// not. Decoding every record at boot used to skip such a record; with
// the store as the cold tier its first use finds it, and must treat it
// as poison:
// the session starts cold with the right frontier, the entry leaves all
// three tiers, a tombstone is written, Store.Corrupted is bumped and one
// warning is emitted; neither a second create nor a reboot meets the
// record again. With the hint naming the record, the same happens before
// New returns.
func TestFirstUsePoisonQuarantined(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		t.Run(fmt.Sprintf("hinted=%v", hinted), func(t *testing.T) {
			dir := t.TempDir()
			l1 := startLife(t, dir, nil)
			_, want := l1.serve("Q4")
			l1.svc.Shutdown()
			if !hinted {
				if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
					t.Fatal(err)
				}
			}
			poisonOnlyFrame(t, dir)

			events := eventlog.New(eventlog.Options{})
			l2 := startLife(t, dir, func(cfg *Config) { cfg.Events = events })
			poisonedNow := func() (st Stats, warnings int) {
				for _, ev := range events.Snapshot(0, eventlog.LevelWarn) {
					if strings.Contains(ev.Msg, "failed to decode") {
						warnings++
					}
				}
				return l2.svc.Stats(), warnings
			}
			st, warnings := poisonedNow()
			if st.Store.Loaded != 1 {
				t.Fatalf("the scan loaded %d records, want the planted one", st.Store.Loaded)
			}
			if !hinted {
				if st.Cache.Entries != 0 || st.Poisoned != 0 || warnings != 0 {
					t.Fatalf("before the first use: %+v, %d warnings", st.Cache, warnings)
				}
			}
			prov, frontier := l2.serve("Q4")
			if prov != "cold" || !slices.Equal(frontier, want) {
				t.Errorf("first create served as %s, frontier equal to the healthy one: %v", prov, slices.Equal(frontier, want))
			}
			st, warnings = poisonedNow()
			if st.Poisoned != 1 || st.Cache.Poisoned != 1 || st.Store.Corrupted != 1 || warnings != 1 {
				t.Errorf("after the first create: poisoned %d/%d, corrupted %d, %d warnings; want 1/1, 1, 1",
					st.Poisoned, st.Cache.Poisoned, st.Store.Corrupted, warnings)
			}
			// The cold session re-exported a healthy snapshot under the same
			// fingerprint: the second create is warm from it and nothing is
			// quarantined twice.
			if prov, _ := l2.serve("Q4"); prov != "exact" {
				t.Errorf("second create served as %s, want exact (from the fresh export)", prov)
			}
			st, warnings = poisonedNow()
			if st.Poisoned != 1 || st.Store.Corrupted != 1 || warnings != 1 {
				t.Errorf("second create met the record again: poisoned %d, corrupted %d, %d warnings", st.Poisoned, st.Store.Corrupted, warnings)
			}
			l2.svc.Shutdown() // flushes tombstone and re-export

			l3 := startLife(t, dir, nil)
			defer l3.svc.Shutdown()
			st = l3.svc.Stats()
			if st.Store.Tombstones != 1 || st.Store.Loaded != 1 || st.Store.Corrupted != 0 {
				t.Fatalf("reboot scan: %d tombstones, %d loaded, %d corrupted; want 1/1/0", st.Store.Tombstones, st.Store.Loaded, st.Store.Corrupted)
			}
			if prov, frontier := l3.serve("Q4"); prov != "exact-replay" || !slices.Equal(frontier, want) {
				t.Errorf("reboot served Q4 as %s, frontier equal: %v", prov, slices.Equal(frontier, want))
			}
			if st := l3.svc.Stats(); st.Poisoned != 0 || st.Store.Corrupted != 0 {
				t.Errorf("reboot met the poison again: poisoned %d, corrupted %d", st.Poisoned, st.Store.Corrupted)
			}
		})
	}
}

// TestConcurrentHotSetPoison boots, many times over, a store whose hot
// set holds six records, the middle one poisoned the way
// poisonOnlyFrame poisons one: the boot fetches the hot set on several
// goroutines at once, and every boot must still bury the poison exactly
// once — one quarantine, one warning, one corrupted record — with every
// other hot entry resident and decoded before New returns. Run under
// -race in CI.
func TestConcurrentHotSetPoison(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	blocks := []string{"Q4", "Q12", "Q13", "Q14", "Q3", "Q19"}
	seed := t.TempDir()
	l1 := startLife(t, seed, nil)
	for _, b := range blocks {
		l1.serve(b)
	}
	l1.svc.Shutdown()
	poisonMiddleFrame(t, seed, len(blocks))

	for boot := 0; boot < 20; boot++ {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
			t.Fatal(err)
		}
		events := eventlog.New(eventlog.Options{})
		l := startLife(t, dir, func(cfg *Config) { cfg.Events = events })
		warnings := 0
		for _, ev := range events.Snapshot(0, eventlog.LevelWarn) {
			if strings.Contains(ev.Msg, "failed to decode") {
				warnings++
			}
		}
		st := l.svc.Stats()
		if st.Poisoned != 1 || st.Cache.Poisoned != 1 || warnings != 1 || st.Store.Corrupted != 1 {
			t.Fatalf("boot %d: poisoned %d/%d, %d warnings, corrupted %d; want 1/1, 1, 1",
				boot, st.Poisoned, st.Cache.Poisoned, warnings, st.Store.Corrupted)
		}
		if st.Cache.Entries != len(blocks)-1 {
			t.Fatalf("boot %d: %d cache entries, want %d", boot, st.Cache.Entries, len(blocks)-1)
		}
		l.wantResidency(uint64(len(blocks)), 0, 0)
		l.svc.Shutdown()
	}
}

// poisonMiddleFrame flips one byte in the middle of the snapshot blob
// of the middle frame of dir's single segment, which must hold n frames
// (u32 payload length | u32 CRC32C | payload, the blob last), and
// reseals that frame's CRC32C.
func poisonMiddleFrame(t *testing.T, dir string, n int) {
	t.Helper()
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][2]int // [start, end) of each frame's payload
	for off := 0; off+8 <= len(data); {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) {
			t.Fatalf("frame at %d overruns the segment", off)
		}
		frames = append(frames, [2]int{off + 8, end})
		off = end
	}
	if len(frames) != n {
		t.Fatalf("segment holds %d frames, want %d", len(frames), n)
	}
	f := frames[n/2]
	payload := data[f[0]:f[1]]
	payload[len(payload)/2] ^= 0x40
	binary.LittleEndian.PutUint32(data[f[0]-4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// poisonOnlyFrame flips one byte in the middle of the snapshot blob of
// the single frame in dir's single segment and reseals the frame's
// CRC32C.
func poisonOnlyFrame(t *testing.T, dir string) { poisonMiddleFrame(t, dir, 1) }

// BenchmarkServiceBoot is the layer bench of the boot path: service.New
// on a directory in the state restart_cycle reaches late in a run — the
// 19 small TPC-H blocks plus 240 three-table synthetic records, written
// by moqod's default optimizer configuration, and a checkpoint whose hot
// set names the 21 entries one life of that workload uses — with a cache
// of half as many entries as the store has live records. Two cases:
// "checkpointed" boots after a clean shutdown (the checkpoint covers the
// whole log, nothing is scanned), "scanned" after the segment has been
// renumbered behind the checkpoint, as a compaction in a killed life
// would leave it (the whole log is scanned; the hot set still applies).
// Reports ms/boot, scanned bytes/boot, decodes/boot (= the hot set; each
// is one read of the store), the checkpoint's bytes per live record and,
// with -benchmem, the bytes a boot allocates.
func BenchmarkServiceBoot(b *testing.B) {
	dir := b.TempDir()
	cfg := Config{
		Opt:           core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05},
		Workers:       2,
		IdleTimeout:   -1,
		CacheCapacity: 128, // the store holds about twice as many live records
		StoreDir:      dir,
	}
	var queries []*query.Query
	for i := 0; i < 240; i++ {
		q, err := query.Synthetic(catalog.TPCH(1), 3, query.Topology(i%3), rand.New(rand.NewSource(int64(1000+i))))
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	blocks := workload.MustTPCHBlocks(1)
	for _, name := range []string{"Q2", "Q2-sub", "Q3", "Q4", "Q10", "Q11", "Q11-sub", "Q12", "Q13", "Q14",
		"Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q20-sub", "Q21", "Q22"} {
		blk, ok := workload.Find(blocks, name)
		if !ok {
			b.Fatalf("unknown block %s", name)
		}
		queries = append(queries, blk.Query)
	}
	seed, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range queries {
		id, err := seed.Create(q)
		if err != nil {
			b.Fatal(err)
		}
		if st, err := seed.WaitTarget(id); err != nil || st.State != AtTarget {
			b.Fatalf("seeding: %v, state %v", err, st.State)
		}
		if err := seed.Close(id); err != nil {
			b.Fatal(err)
		}
	}
	seed.Shutdown()
	// The newest 21 distinct records: the blocks (Q11 and Q11-sub are one
	// query) and the last synthetic queries before them.
	var hint []string
	for i := len(queries) - 1; len(hint) < 21; i-- {
		if fp := queries[i].Fingerprint(); !slices.Contains(hint, fp) {
			hint = append(hint, fp)
		}
	}
	echo, err := core.ConfigFingerprint(cfg.Opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		stale bool
	}{{"checkpointed", false}, {"scanned", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var decodes uint64
			var scanned, checkpointBytes, live int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				writeHotSet(b, dir, echo, hint) // an idle life's shutdown leaves an empty hot set
				if fi, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil {
					checkpointBytes += fi.Size()
				}
				if tc.stale {
					renumberSegment(b, dir)
				}
				b.StartTimer()
				svc, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				decodes += svc.obs.DecodesBoot.Value()
				st := svc.Stats()
				scanned += st.Store.ScanBytes
				live += int64(st.Store.LiveRecords)
				if st.Cache.Entries != len(hint) ||
					st.StoreReadsBoot != uint64(len(hint)) || (st.Store.ScanBytes == 0) != !tc.stale {
					b.Fatalf("boot left %d entries, %d reads, hint %d, scanned %d bytes",
						st.Cache.Entries, st.StoreReadsBoot, len(hint), st.Store.ScanBytes)
				}
				svc.Shutdown()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/boot")
			b.ReportMetric(float64(scanned)/float64(b.N), "scanned-B/boot")
			b.ReportMetric(float64(decodes)/float64(b.N), "decodes/boot")
			b.ReportMetric(float64(checkpointBytes)/float64(live), "checkpoint-B/record")
		})
	}
}

// renumberSegment gives dir's only segment the next sequence number, so
// the checkpoint beside it describes a segment that is gone: the state a
// compaction leaves when the process dies before its Close.
func renumberSegment(t testing.TB, dir string) {
	t.Helper()
	seg := onlySegment(t, dir)
	var seq int
	if _, err := fmt.Sscanf(filepath.Base(seg), "seg-%d.moqs", &seq); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(seg, filepath.Join(dir, fmt.Sprintf("seg-%08d.moqs", seq+1))); err != nil {
		t.Fatal(err)
	}
}
