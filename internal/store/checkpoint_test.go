package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/snapcodec"
	"repro/internal/workload"
)

// TestCheckpointHotSetRoundTrip pins the hot set's contract at the store
// level: Close(hot...) leaves it in the checkpoint, the next Open's Hot
// returns it in the order Close got it, the next Close replaces it
// whole, and it reads as nil — never as an error, never as a partial
// list — when the checkpoint is for another configuration or any byte
// of it is damaged. (The service-level fault matrix covers what a boot
// does with each outcome.)
func TestCheckpointHotSetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	if got := s.Hot(); got != nil {
		t.Fatalf("fresh directory has a hot set: %v", got)
	}
	s.Put("fpA", "canonA", "", nil, testSnapshot(t, "Q4"))
	want := []string{"fpC", "fpA", "fpB"}
	if err := s.Close(want...); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir, nil)
	if got := re.Hot(); !slices.Equal(got, want) {
		t.Fatalf("hot set read back as %v, want %v", got, want)
	}
	if st := re.Stats(); st.Segments != 1 || st.LiveRecords != 1 || st.ScanBytes != 0 || st.Corrupted != 0 {
		t.Errorf("boot behind a clean close: %+v, want one adopted record and nothing scanned", st)
	}
	if err := re.Close("fpA"); err != nil {
		t.Fatal(err)
	}
	re = openTestStore(t, dir, nil)
	if got := re.Hot(); !slices.Equal(got, []string{"fpA"}) {
		t.Fatalf("after the second close the hot set reads %v, want that close's alone", got)
	}
	if err := re.Close(want...); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, checkpointName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s = openTestStore(t, dir, nil)
	for i := range whole {
		damaged := bytes.Clone(whole)
		damaged[i] ^= 0x04
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if cp, ok := s.readCheckpoint(); ok {
			t.Fatalf("checkpoint with byte %d flipped read as hot set %v", i, cp.hot)
		}
		if err := os.WriteFile(path, whole[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		if cp, ok := s.readCheckpoint(); ok {
			t.Fatalf("checkpoint cut to %d bytes read as hot set %v", i, cp.hot)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint another configuration's Close leaves is what the
	// next boot finds.
	other := openTestStore(t, dir, func(o *Options) { o.CfgEcho = "3x9|another-build" })
	if got := other.Hot(); got != nil {
		t.Errorf("a store of another configuration accepted the hot set: %v", got)
	}
	if err := other.Close("fpA"); err != nil {
		t.Fatal(err)
	}
	re = openTestStore(t, dir, nil)
	defer re.Close()
	if got, st := re.Hot(), re.Stats(); got != nil || st.AdoptedSegments != 0 || st.ScanBytes == 0 || st.LiveRecords != 1 {
		t.Errorf("boot behind another configuration's checkpoint: hot set %v, %+v; want none and a scan", got, st)
	}
}

// TestReplayIsWalkLoadDecode: Replay yields the records Walk lists, in
// Walk's order and with Walk's keys, each with the snapshot Load and
// snapcodec.Decode produce for its fingerprint; Walk itself reads
// nothing, and every Load owns its bytes.
func TestReplayIsWalkLoadDecode(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	s.Put("fpA", "canonA", "structA", []int{1, 0}, testSnapshot(t, "Q4"))
	s.Put("fpB", "canonB", "structB", nil, testSnapshot(t, "Q12"))
	s.Put("fpA", "canonA2", "structA", []int{0, 1}, testSnapshot(t, "Q14")) // supersedes, moves to the end
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil)
	s = openTestStore(t, dir, func(o *Options) { o.FS = inj })
	defer s.Close()

	var replayed, walked []Record
	if err := s.Replay(func(r Record) bool { replayed = append(replayed, r); return true }); err != nil {
		t.Fatal(err)
	}
	opens, reads := inj.Count(faultfs.OpOpen), inj.Count(faultfs.OpReadAt)
	s.Walk(func(r Record) bool { walked = append(walked, r); return true })
	if inj.Count(faultfs.OpOpen) != opens || inj.Count(faultfs.OpReadAt) != reads {
		t.Error("Walk touched the filesystem")
	}
	if len(replayed) != 2 || len(walked) != 2 || walked[0].FP != "fpB" || walked[1].FP != "fpA" {
		t.Fatalf("replayed %d and walked %d records, want [fpB fpA] twice", len(replayed), len(walked))
	}
	var blobs [][]byte
	for i, w := range walked {
		r := replayed[i]
		if w.Snap != nil || r.Snap == nil {
			t.Fatalf("record %d: Walk set Snap or Replay left it nil", i)
		}
		if w.FP != r.FP || w.CanonFP != r.CanonFP || w.StructFP != r.StructFP ||
			w.StatsEpoch != r.StatsEpoch || !slices.Equal(w.Perm, r.Perm) {
			t.Errorf("record %d keys differ: %+v vs %+v", i, w, r)
		}
		blob, err := s.Load(w.FP)
		if err != nil {
			t.Fatal(err)
		}
		again, err := snapcodec.Encode(nil, r.Snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("record %d: what Load returns is not the snapshot Replay decoded", i)
		}
		blobs = append(blobs, blob)
	}
	if w := walked[1]; w.CanonFP != "canonA2" || !slices.Equal(w.Perm, []int{0, 1}) {
		t.Errorf("fpA walked with keys %+v, want the superseding record's", w)
	}
	// Scribbling over one load's bytes must not reach another's, nor a
	// later load of the same record.
	before := bytes.Clone(blobs[1])
	for i := range blobs[0] {
		blobs[0][i] = 0xff
	}
	if again, err := s.Load("fpB"); err != nil || bytes.Equal(again, blobs[0]) || !bytes.Equal(before, blobs[1]) {
		t.Errorf("loaded records share a buffer (reload: %v)", err)
	}
	if _, err := s.Load("never-put"); !errors.Is(err, ErrNotStored) {
		t.Errorf("Load of an unknown fingerprint: %v, want ErrNotStored", err)
	}
}

// ckptBlocks are the TPC-H blocks the checkpoint tests persist: small
// snapshots (4–10 KB frames), so a few dozen records roll over
// 40 KB segments a few times.
var ckptBlocks = []string{"Q4", "Q12", "Q13", "Q14", "Q17", "Q19"}

// ckptSnapshots memoizes one snapshot per block and statistics epoch
// (epochSnapshot builds a fresh one each call).
type ckptSnapshots map[string]*core.Snapshot

func (c ckptSnapshots) get(t *testing.T, block string, epoch uint64) *core.Snapshot {
	t.Helper()
	key := fmt.Sprintf("%s@%d", block, epoch)
	if c[key] == nil {
		c[key] = epochSnapshot(t, block, epoch)
	}
	return c[key]
}

// foreignSnapshot is a snapshot of another optimizer configuration: the
// store accepts its Put, writes the frame and counts it rejected.
var foreignSnapshot *core.Snapshot

func foreignSnap(t *testing.T) *core.Snapshot {
	t.Helper()
	if foreignSnapshot == nil {
		cfg := testConfig()
		cfg.ResolutionLevels = 3
		blk, ok := workload.Find(workload.MustTPCHBlocks(1), "Q14")
		if !ok {
			t.Fatal("unknown block Q14")
		}
		opt := core.MustNewOptimizer(blk.Query, cfg)
		for r := 0; r <= cfg.MaxResolution(); r++ {
			opt.Optimize(nil, r)
		}
		foreignSnapshot = opt.Snapshot()
	}
	return foreignSnapshot
}

// randomOps appends n seeded operations over fingerprints fp0…fp5 and
// flushes: mostly Puts that supersede one another (random block, epoch,
// keys and permutation), quarantine tombstones, and Puts of another
// configuration's snapshot.
func randomOps(t *testing.T, rng *rand.Rand, s *Store, snaps ckptSnapshots, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		fp := fmt.Sprintf("fp%d", rng.Intn(6))
		switch k := rng.Intn(10); {
		case k == 0:
			s.Quarantine(fp)
		case k == 1:
			s.PutBlocking(fp, "canonX", "structX", nil, foreignSnap(t))
		default:
			s.PutBlocking(fp, fmt.Sprintf("canon%d", rng.Intn(3)), fmt.Sprintf("struct%d", rng.Intn(3)),
				rng.Perm(rng.Intn(4)), snaps.get(t, ckptBlocks[rng.Intn(len(ckptBlocks))], uint64(rng.Intn(3))))
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// walkAll lists Walk's records.
func walkAll(s *Store) []Record {
	var recs []Record
	s.Walk(func(r Record) bool { recs = append(recs, r); return true })
	return recs
}

// copySegments copies dir's segment files, and nothing else, to a new
// directory.
func copySegments(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.moqs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestCheckpointBootMatchesScan: a boot that adopts the checkpoint a
// clean Close left builds the store a scan of the same log builds. Each
// seeded directory goes through three lives — random supersedes,
// tombstones and foreign-configuration records rolling 40 KB segments;
// one life that compacts at its first append; random operations again —
// and is then opened twice: as it is, and as a copy without the
// checkpoint. Both must agree on Walk (keys and write order), on Load's
// bytes for every fingerprint, on every segment's size, last frame
// header and tallies, on the active segment, and on Stats except for
// what says how the index was built: ScanBytes and ScanTotal (what the
// scan read and how long Open took: 0 bytes after the adoption),
// AdoptedSegments and AdoptedRecords, and Loaded — the scan counts every
// accepted frame, superseded ones included, an adoption only the live
// records it takes over. The same appends to both must then compact at
// the same append.
func TestCheckpointBootMatchesScan(t *testing.T) {
	snaps := ckptSnapshots{}
	const segBytes = 40 << 10
	quiet := func(o *Options) { o.MaxSegmentBytes = segBytes; o.MinCompactBytes = 1 << 40 }
	eager := func(o *Options) { o.MaxSegmentBytes = segBytes; o.MinCompactBytes = 1; o.CompactFraction = 0.01 }
	live := func(o *Options) { o.MaxSegmentBytes = segBytes; o.MinCompactBytes = 1 }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := openTestStore(t, dir, quiet)
			randomOps(t, rng, s, snaps, 14)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openTestStore(t, dir, eager)
			randomOps(t, rng, s, snaps, 1)
			if st := s.Stats(); st.Compactions != 1 {
				t.Fatalf("the second life's first append made %d compactions, want 1", st.Compactions)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openTestStore(t, dir, quiet)
			randomOps(t, rng, s, snaps, 16)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			scanned := copySegments(t, dir)
			a := openTestStore(t, dir, live)
			defer a.Close()
			b := openTestStore(t, scanned, live)
			defer b.Close()
			sa, sb := a.Stats(), b.Stats()
			if sa.ScanBytes != 0 || sa.AdoptedSegments != sa.Segments || sa.AdoptedRecords != sa.LiveRecords ||
				sa.Loaded != uint64(sa.LiveRecords) {
				t.Errorf("checkpointed boot: %+v, want every segment and record adopted and nothing scanned", sa)
			}
			if sb.AdoptedSegments != 0 || sb.ScanBytes != sb.LiveBytes+sb.DeadBytes {
				t.Errorf("scanned boot: %+v, want the whole log read", sb)
			}
			if sb.Segments < 2 || sb.Tombstones == 0 || sb.Rejected == 0 || sb.DeadBytes == 0 || sb.LiveRecords == 0 {
				t.Fatalf("the log lost its coverage: %+v", sb)
			}
			sameStore(t, a, b)

			for i := 0; i < 30; i++ {
				fp := fmt.Sprintf("fp%d", rng.Intn(2))
				snap := snaps.get(t, ckptBlocks[rng.Intn(len(ckptBlocks))], 0)
				for _, s := range []*Store{a, b} {
					s.PutBlocking(fp, "canonN", "structN", nil, snap)
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if ca, cb := a.Stats().Compactions, b.Stats().Compactions; ca != cb {
					t.Fatalf("append %d: %d compactions after the checkpointed boot, %d after the scanned one", i, ca, cb)
				}
			}
			if a.Stats().Compactions == 0 {
				t.Fatal("30 supersedes never compacted")
			}
			sameStore(t, a, b)
		})
	}
}

// sameStore requires a and b to hold the same index, segments and
// Stats, apart from the fields that say how the index was built.
func sameStore(t *testing.T, a, b *Store) {
	t.Helper()
	if wa, wb := walkAll(a), walkAll(b); !reflect.DeepEqual(wa, wb) {
		t.Errorf("walks differ:\n checkpointed %+v\n scanned      %+v", wa, wb)
	}
	for i := 0; i <= 6; i++ {
		fp := fmt.Sprintf("fp%d", i)
		la, ea := a.Load(fp)
		lb, eb := b.Load(fp)
		if !bytes.Equal(la, lb) || (ea == nil) != (eb == nil) || errors.Is(ea, ErrNotStored) != errors.Is(eb, ErrNotStored) {
			t.Errorf("Load(%s): %d bytes, %v after the checkpointed boot; %d bytes, %v after the scanned one", fp, len(la), ea, len(lb), eb)
		}
	}
	a.mu.Lock()
	b.mu.Lock()
	if a.active != b.active || len(a.segments) != len(b.segments) {
		t.Errorf("active segment %d of %d vs %d of %d", a.active, len(a.segments), b.active, len(b.segments))
	}
	for seq, seg := range a.segments {
		if other, ok := b.segments[seq]; !ok || *seg != *other {
			t.Errorf("segment %d: %+v after the checkpointed boot, %+v after the scanned one", seq, *seg, other)
		}
	}
	a.mu.Unlock()
	b.mu.Unlock()
	sa, sb := a.Stats(), b.Stats()
	for _, st := range []*Stats{&sa, &sb} {
		st.ScanBytes, st.ScanTotal, st.Loaded, st.AdoptedSegments, st.AdoptedRecords = 0, 0, 0, 0, 0
		st.FlushTotal = 0
	}
	if sa != sb {
		t.Errorf("stats differ:\n checkpointed %+v\n scanned      %+v", sa, sb)
	}
}

// resealCheckpoint rewrites dir's checkpoint payload through fn and
// seals it again, so only the checks after the CRC32C can refuse it.
func resealCheckpoint(t *testing.T, dir string, fn func(version uint64, echo string, rest []byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := openFrame(data)
	if !ok {
		t.Fatal("the checkpoint does not open")
	}
	r := snapcodec.NewReader(payload)
	version, echo := r.Uvarint(), r.Str()
	if err := os.WriteFile(path, sealFrame(fn(version, echo, r.Bytes(r.Len()))), 0o644); err != nil {
		t.Fatal(err)
	}
}

// crashedLife runs fn on a store opened on dir and leaves the directory
// as if that life had been killed after fn: its Close runs — so the
// writer stops and the files are whole — and the checkpoint the life
// started from is put back.
func crashedLife(t *testing.T, dir string, mutate func(*Options), fn func(*Store)) {
	t.Helper()
	path := filepath.Join(dir, checkpointName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, mutate)
	fn(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFaultMatrix damages the checkpoint — truncated,
// bit-flipped, another configuration's, an unknown format version, a
// leftover temporary file beside it — or the log behind it: a segment
// appended to by a life that never closed, cut below what the
// checkpoint covers, compacted away by such a life, deleted, or replaced
// by other bytes at least as long. In every case the boot succeeds,
// every fingerprint loads its own bytes or is ErrNotStored (no frame
// that fails its checks is handed out), nothing is tombstoned, the
// records the damage did not reach still load, and the next clean
// Close leaves a checkpoint the boot after it adopts whole.
func TestCheckpointFaultMatrix(t *testing.T) {
	const segBytes = 32 << 10 // the six records fill two segments
	roll := func(o *Options) { o.MaxSegmentBytes = segBytes }
	type layout struct {
		dir  string
		want map[string][]byte // fingerprint → its record's snapshot bytes
		seg  map[string]int64  // fingerprint → its segment
	}
	inSeg := func(l layout, seq int64) (fps []string) {
		for fp, s := range l.seg {
			if s == seq {
				fps = append(fps, fp)
			}
		}
		return fps
	}
	all := func(l layout) (fps []string) {
		for fp := range l.want {
			fps = append(fps, fp)
		}
		return fps
	}
	for _, tc := range []struct {
		name string
		// damage breaks the layout and returns the fingerprints that must
		// still load.
		damage      func(t *testing.T, l *layout) []string
		wantAdopted int
		wantScan    bool
	}{
		{"checkpoint truncated", func(t *testing.T, l *layout) []string {
			path := filepath.Join(l.dir, checkpointName)
			data, _ := os.ReadFile(path)
			writeFile(t, path, data[:len(data)/2])
			return all(*l)
		}, 0, true},
		{"checkpoint bit-flipped", func(t *testing.T, l *layout) []string {
			path := filepath.Join(l.dir, checkpointName)
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0x10
			writeFile(t, path, data)
			return all(*l)
		}, 0, true},
		{"checkpoint of another configuration", func(t *testing.T, l *layout) []string {
			resealCheckpoint(t, l.dir, func(v uint64, _ string, rest []byte) []byte {
				return append(snapcodec.AppendString(binary.AppendUvarint(nil, v), "3x9|another-build"), rest...)
			})
			return all(*l)
		}, 0, true},
		{"checkpoint of an unknown version", func(t *testing.T, l *layout) []string {
			resealCheckpoint(t, l.dir, func(v uint64, echo string, rest []byte) []byte {
				return append(snapcodec.AppendString(binary.AppendUvarint(nil, v+1), echo), rest...)
			})
			return all(*l)
		}, 0, true},
		{"leftover temporary file", func(t *testing.T, l *layout) []string {
			writeFile(t, filepath.Join(l.dir, checkpointName+".tmp"), []byte("torn"))
			return all(*l)
		}, 2, false},
		{"segment appended to by a killed life", func(t *testing.T, l *layout) []string {
			crashedLife(t, l.dir, roll, func(s *Store) {
				s.PutBlocking("late", "canonL", "", nil, testSnapshot(t, "Q19"))
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				l.want["late"], _ = s.Load("late")
			})
			return all(*l)
		}, 2, true},
		{"segment cut below what is covered", func(t *testing.T, l *layout) []string {
			path := filepath.Join(l.dir, segName(2))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-100); err != nil {
				t.Fatal(err)
			}
			return inSeg(*l, 1)
		}, 1, true},
		{"log compacted by a killed life", func(t *testing.T, l *layout) []string {
			crashedLife(t, l.dir, func(o *Options) {
				roll(o)
				o.MinCompactBytes, o.CompactFraction = 1, 0.01
			}, func(s *Store) {
				s.PutBlocking("r0", "canon0", "", nil, testSnapshot(t, "Q17"))
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if s.Stats().Compactions != 1 {
					t.Fatal("the superseding append did not compact")
				}
				l.want["r0"], _ = s.Load("r0")
			})
			if _, err := os.Stat(filepath.Join(l.dir, segName(1))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("compaction left segment 1 (%v)", err)
			}
			return all(*l)
		}, 0, true},
		{"first segment deleted", func(t *testing.T, l *layout) []string {
			if err := os.Remove(filepath.Join(l.dir, segName(1))); err != nil {
				t.Fatal(err)
			}
			return inSeg(*l, 2)
		}, 0, true},
		{"last segment deleted", func(t *testing.T, l *layout) []string {
			if err := os.Remove(filepath.Join(l.dir, segName(2))); err != nil {
				t.Fatal(err)
			}
			return inSeg(*l, 1)
		}, 1, false},
		{"segment replaced by other bytes", func(t *testing.T, l *layout) []string {
			path := filepath.Join(l.dir, segName(1))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			other := make([]byte, fi.Size()+64)
			rand.New(rand.NewSource(9)).Read(other)
			writeFile(t, path, other)
			return inSeg(*l, 2)
		}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := layout{dir: t.TempDir(), want: map[string][]byte{}, seg: map[string]int64{}}
			s := openTestStore(t, l.dir, roll)
			for i, block := range []string{"Q4", "Q12", "Q13", "Q14", "Q17", "Q19"} {
				s.PutBlocking(fmt.Sprintf("r%d", i), fmt.Sprintf("canon%d", i), "", []int{1, 0}, testSnapshot(t, block))
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for fp, loc := range s.index {
				l.seg[fp] = loc.seg
				l.want[fp], _ = s.Load(fp)
			}
			if err := s.Close("r0"); err != nil {
				t.Fatal(err)
			}
			if len(inSeg(l, 1))+len(inSeg(l, 2)) != 6 || len(inSeg(l, 2)) == 0 {
				t.Fatalf("records by segment %v: want two segments", l.seg)
			}

			mustLoad := tc.damage(t, &l)
			s = openTestStore(t, l.dir, roll)
			st := s.Stats()
			if st.AdoptedSegments != tc.wantAdopted || (st.ScanBytes > 0) != tc.wantScan {
				t.Errorf("adopted %d segments and scanned %d bytes; want %d and a scan: %v",
					st.AdoptedSegments, st.ScanBytes, tc.wantAdopted, tc.wantScan)
			}
			if st.Tombstones != 0 {
				t.Errorf("%d tombstones after the boot", st.Tombstones)
			}
			checkLoads := func(s *Store) []Record {
				for fp, want := range l.want {
					got, err := s.Load(fp)
					if err != nil && !errors.Is(err, ErrNotStored) || err == nil && !bytes.Equal(got, want) {
						t.Errorf("Load(%s): %d bytes (its own: %v), %v", fp, len(got), bytes.Equal(got, want), err)
					}
					if err != nil && slices.Contains(mustLoad, fp) {
						t.Errorf("Load(%s): %v, but the damage did not reach it", fp, err)
					}
				}
				return walkAll(s)
			}
			walked := checkLoads(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s = openTestStore(t, l.dir, roll)
			defer s.Close()
			if st := s.Stats(); st.ScanBytes != 0 || st.AdoptedSegments != st.Segments || st.Tombstones != 0 {
				t.Errorf("boot after the next clean close: %+v, want everything adopted", st)
			}
			if again := checkLoads(s); !reflect.DeepEqual(again, walked) {
				t.Errorf("the next life walks %v, the damaged one walked %v", again, walked)
			}
		})
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzCheckpoint: whatever bytes the checkpoint file holds beside a
// valid two-segment store — as they are, and sealed as a frame so the
// decoder behind the CRC32C sees them — Open neither panics nor fails,
// every record it indexes loads bytes some frame of the log wrote for
// that fingerprint or is refused by Load's checks, and a checkpoint it
// does not adopt leaves the index the scan builds.
func FuzzCheckpoint(f *testing.F) {
	echo := "2x2|fuzz"
	rng := rand.New(rand.NewSource(1))
	var segs [2][]byte
	written := map[string][][]byte{} // fingerprint → every blob the log holds for it
	for i := range segs {
		for j := 0; j < 4; j++ {
			fp := fmt.Sprintf("fp%d", rng.Intn(5))
			frame := fakeFrame(rng, fp, echo, 40+rng.Intn(80))
			_, _, blob, _ := parseFrame(frame[frameHeaderLen:])
			written[fp] = append(written[fp], blob)
			segs[i] = append(segs[i], frame...)
		}
	}
	layDown := func(t testing.TB, checkpoint []byte) string {
		dir := t.TempDir()
		for i, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(int64(i+1))), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if checkpoint != nil {
			if err := os.WriteFile(filepath.Join(dir, checkpointName), checkpoint, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	open := func(t testing.TB, dir string) *Store {
		s, err := Open(Options{Dir: dir, CfgEcho: echo})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := open(f, layDown(f, nil))
	scanned := walkAll(ref)
	if err := ref.Close("fp1", "fp4"); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(ref.opts.Dir, checkpointName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[frameHeaderLen:])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, checkpoint := range [][]byte{data, sealFrame(data)} {
			s := open(t, layDown(t, checkpoint))
			for _, r := range walkAll(s) {
				blob, err := s.Load(r.FP)
				switch {
				case err == nil:
					if !slices.ContainsFunc(written[r.FP], func(b []byte) bool { return bytes.Equal(b, blob) }) {
						t.Fatalf("Load(%s) handed out bytes no frame of it holds", r.FP)
					}
				case !errors.Is(err, ErrNotStored) && !errors.Is(err, ErrCorrupt):
					t.Fatalf("Load(%s): %v", r.FP, err)
				}
			}
			if s.Stats().AdoptedSegments == 0 && !reflect.DeepEqual(walkAll(s), scanned) {
				t.Fatal("a checkpoint that was not adopted changed the index")
			}
			s.Close()
		}
	})
}
