package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/snapcodec"
)

// refScan is the whole-file scan the store shipped before the windowed
// one, kept as the oracle the windowed scan is compared against: the
// same per-frame rules applied to a segment held in memory, on plain
// maps and counters of its own.
type refScan struct {
	echo      string
	index     map[string]location
	nextOrder uint64
	maxEpoch  uint64
	stats     Stats
}

// segment scans one segment's bytes and returns the length of its valid
// prefix: where the store truncates the file.
func (r *refScan) segment(seq int64, data []byte) int64 {
	off := int64(0)
	for int64(len(data))-off >= frameHeaderLen {
		payloadLen := int64(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeaderLen + payloadLen
		if end > int64(len(data)) {
			break // torn tail
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			break
		}
		rec, cfgEcho, blob, ok := parseFrame(payload)
		if !ok {
			break
		}
		size := end - off
		old, had := r.index[rec.FP]
		switch {
		case len(blob) == 0:
			r.stats.Tombstones++
			r.stats.DeadBytes += size
			if had {
				r.stats.DeadBytes += old.size
				r.stats.LiveBytes -= old.size
				r.stats.Loaded--
				delete(r.index, rec.FP)
			}
		case cfgEcho != r.echo || !snapcodec.CompatibleHeader(blob):
			r.stats.Rejected++
			r.stats.DeadBytes += size
		default:
			if had {
				r.stats.DeadBytes += old.size
				r.stats.LiveBytes -= old.size
			}
			r.index[rec.FP] = location{seg: seq, off: off, size: size, order: r.nextOrder, epoch: rec.StatsEpoch, keys: rec.Keys}
			r.nextOrder++
			r.stats.LiveBytes += size
			r.stats.Loaded++
			r.maxEpoch = max(r.maxEpoch, rec.StatsEpoch)
		}
		off = end
	}
	if off < int64(len(data)) {
		r.stats.Corrupted++
	}
	return off
}

// fakeFrame seals a frame whose snapshot blob the scan accepts — a
// compatible codec header — and nothing would decode: the scan never
// looks further, and filler of any size is cheap to make.
func fakeFrame(rng *rand.Rand, fp, echo string, blobLen int) []byte {
	blob := make([]byte, blobLen)
	if blobLen > 0 {
		rng.Read(blob)
		copy(blob, "MOQS")
		binary.LittleEndian.PutUint16(blob[4:], snapcodec.Version)
		if !snapcodec.CompatibleHeader(blob) {
			panic("fakeFrame: the codec header moved")
		}
	}
	rec := Record{Keys: query.Keys{FP: fp, CanonFP: fmt.Sprintf("canon%d", rng.Intn(4)), StructFP: fmt.Sprintf("struct%d", rng.Intn(3))},
		StatsEpoch: uint64(rng.Intn(4))}
	rec.Perm = rng.Perm(rng.Intn(5))
	return encodeFrame(rec, echo, blob)
}

// randomLog builds one segment's bytes: live records that supersede one
// another over a small key space, tombstones, records of a foreign
// configuration and of a foreign codec version, in sizes from a few
// hundred bytes to — when huge — one frame larger than the scan window.
func randomLog(rng *rand.Rand, echo string, frames int, huge bool) []byte {
	var log []byte
	hugeAt := -1
	if huge {
		hugeAt = rng.Intn(frames)
	}
	for i := 0; i < frames; i++ {
		fp := fmt.Sprintf("fp%d", rng.Intn(8))
		size := 200 + rng.Intn(48<<10)
		if rng.Intn(6) == 0 {
			size = 200<<10 + rng.Intn(300<<10)
		}
		if i == hugeAt {
			size = scanWindowSize + 1 + rng.Intn(256<<10)
		}
		var frame []byte
		switch k := rng.Intn(10); {
		case k == 0:
			frame = fakeFrame(rng, fp, echo, 0) // tombstone
		case k == 1:
			frame = fakeFrame(rng, fp, "9x9|another-build", size)
		case k == 2:
			frame = fakeFrame(rng, fp, echo, size)
			payload := frame[frameHeaderLen:]
			_, _, blob, _ := parseFrame(payload)
			binary.LittleEndian.PutUint16(blob[4:], snapcodec.Version+1)
			binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
		default:
			frame = fakeFrame(rng, fp, echo, size)
		}
		log = append(log, frame...)
	}
	return log
}

// TestScanMatchesWholeFileReference: seeded random two-segment logs,
// damaged in every way the scan has a rule for, indexed by the windowed
// scan exactly as by the whole-file reference — every location with its
// keys and write stamp, every counter, and the offset each file is
// truncated at — and every record the index lists loads.
func TestScanMatchesWholeFileReference(t *testing.T) {
	echo := testEcho(t, testConfig())
	damages := []struct {
		name string
		do   func(rng *rand.Rand, log []byte) []byte
	}{
		{"intact", func(_ *rand.Rand, log []byte) []byte { return log }},
		{"torn tail", func(rng *rand.Rand, log []byte) []byte { return log[:len(log)-1-rng.Intn(150)] }},
		{"mid-log bit flip", func(rng *rand.Rand, log []byte) []byte {
			log[len(log)/3+rng.Intn(len(log)/3)] ^= 1 << rng.Intn(8)
			return log
		}},
		{"stray tail shorter than a header", func(_ *rand.Rand, log []byte) []byte { return append(log, 1, 2, 3) }},
		{"empty file", func(*rand.Rand, []byte) []byte { return nil }},
	}
	for seed := int64(1); seed <= 10; seed++ {
		damage := damages[seed%int64(len(damages))]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, damage.name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A log of 40 frames runs to a few MiB: frames straddle the
			// window's edge several times over, in either segment.
			logs := [][]byte{randomLog(rng, echo, 40, seed%2 == 0), randomLog(rng, echo, 40, seed%2 == 1)}
			hit := rng.Intn(2)
			logs[hit] = damage.do(rng, logs[hit])
			if damage.name != "empty file" && len(logs[hit]) <= scanWindowSize {
				t.Fatalf("the damaged log is %d bytes: it fits one window", len(logs[hit]))
			}

			ref := refScan{echo: echo, index: map[string]location{}}
			dir := t.TempDir()
			var prefix []int64
			for i, log := range logs {
				prefix = append(prefix, ref.segment(int64(i+1), log))
				if err := os.WriteFile(filepath.Join(dir, segName(int64(i+1))), log, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s := openTestStore(t, dir, nil)
			defer s.Close()
			if !reflect.DeepEqual(s.index, ref.index) {
				t.Errorf("index differs from the reference's:\n got %v\nwant %v", s.index, ref.index)
			}
			got, want := s.Stats(), ref.stats
			if got.Loaded != want.Loaded || got.Rejected != want.Rejected || got.Tombstones != want.Tombstones ||
				got.Corrupted != want.Corrupted || got.LiveBytes != want.LiveBytes || got.DeadBytes != want.DeadBytes ||
				got.MaxStatsEpoch != ref.maxEpoch || got.WriteErrors != 0 {
				t.Errorf("stats differ from the reference's:\n got %+v\nwant %+v (max epoch %d)", got, want, ref.maxEpoch)
			}
			if want.Loaded == 0 || want.Rejected == 0 || want.Tombstones == 0 || want.DeadBytes == 0 {
				t.Fatalf("the log lost its coverage: %+v", want)
			}
			var onDisk int64
			for i, log := range logs {
				seq := int64(i + 1)
				fi, err := os.Stat(filepath.Join(dir, segName(seq)))
				if err != nil {
					t.Fatal(err)
				}
				if s.segments[seq].size != prefix[i] || fi.Size() != prefix[i] {
					t.Errorf("segment %d: recorded %d bytes, %d on disk, reference keeps %d of %d",
						seq, s.segments[seq].size, fi.Size(), prefix[i], len(log))
				}
				onDisk += int64(len(log))
			}
			if s.active != 2 {
				t.Errorf("active segment %d, want 2: both files end where the index says", s.active)
			}
			if got.ScanBytes > onDisk || got.ScanBytes < prefix[0]+prefix[1] {
				t.Errorf("scan read %d bytes of a %d-byte log with %d valid", got.ScanBytes, onDisk, prefix[0]+prefix[1])
			}
			for fp := range ref.index {
				if _, err := s.Load(fp); err != nil {
					t.Errorf("Load(%s): %v", fp, err)
				}
			}
		})
	}
}

// FuzzScanSegment: whatever bytes a segment file holds, the scan neither
// panics nor fails, leaves the file cut at the end of its last good
// frame, and indexes nothing but whole frames whose CRC32C holds.
func FuzzScanSegment(f *testing.F) {
	echo := "2x2|fuzz"
	rng := rand.New(rand.NewSource(1))
	// Seeds of three small frames: the fuzzer's minimizer runs the target
	// a number of times quadratic in an input's length.
	log := append(fakeFrame(rng, "fpA", echo, 12), fakeFrame(rng, "fpB", echo, 8)...)
	log = append(log, fakeFrame(rng, "fpA", echo, 0)...)
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x7f}, log...))
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The scan alone, as Open runs it, on a store without the writer
		// goroutine: the coverage the fuzzer steers by is the input's own,
		// and an execution costs no goroutine start and no flush.
		opts := Options{Dir: dir, CfgEcho: echo}
		if err := opts.defaults(); err != nil {
			t.Fatal(err)
		}
		s := &Store{opts: opts, fs: opts.FS, index: map[string]location{}, classes: map[class]string{}, segments: map[int64]*segment{}}
		if err := s.scan(); err != nil {
			t.Fatal(err)
		}
		end := s.segments[1].size
		if fi, err := os.Stat(path); err != nil || fi.Size() != end || end > int64(len(data)) {
			t.Fatalf("segment recorded at %d bytes of %d, on disk: %v (%v)", end, len(data), fi.Size(), err)
		}
		for fp, loc := range s.index {
			if loc.off < 0 || loc.size < frameHeaderLen || loc.off+loc.size > end {
				t.Fatalf("%q indexed at [%d,+%d) of a %d-byte segment", fp, loc.off, loc.size, end)
			}
			frame := data[loc.off : loc.off+loc.size]
			payload := frame[frameHeaderLen:]
			if int(binary.LittleEndian.Uint32(frame)) != len(payload) ||
				crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
				t.Fatalf("%q indexed at a frame whose length or CRC fails", fp)
			}
			if _, err := s.Load(fp); err != nil {
				t.Fatalf("Load(%q): %v", fp, err)
			}
		}
	})
}

// TestScanReadErrorSealsSegment: a segment the scan cannot read to its
// end is not corrupt and not the place to append. The frames verified
// before the error stay live, the file keeps every byte, the life's own
// records go to the next segment — where Replay finds them — and the
// next boot, on a disk that reads again, has all of both. (The script
// fails ReadFile too, which is how the scan read a segment before it
// read through a window: the same test shows the defect there — the
// life's record indexed at offset 0 of a file it was appended to.)
func TestScanReadErrorSealsSegment(t *testing.T) {
	const old = 30 // records of ≈ 50 KB: the segment runs past one window
	eio := errors.New("injected: input/output error")
	for _, tc := range []struct {
		name string
		// failing reports whether the n-th ReadAt of the scan fails; every
		// Open, Stat and ReadFile fails iff failing(0).
		failing func(readAt uint64) bool
		// prefix reports whether the frames of the first window stay live.
		prefix bool
	}{
		{"open", func(n uint64) bool { return n == 0 }, false},
		{"first read", func(n uint64) bool { return n == 1 }, false},
		{"second read", func(n uint64) bool { return n == 2 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, nil)
			for i := 0; i < old; i++ {
				s.Put(query.Keys{FP: fmt.Sprintf("old%02d", i)}, testSnapshot(t, "Q10"), true)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			dropCheckpoint(t, dir)
			path := filepath.Join(dir, segName(1))
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			wantLive := 0
			if tc.prefix {
				wantLive = int(scanWindowSize / (before.Size() / old))
			}

			inj := faultfs.NewInjector(nil)
			inj.SetScript(func(op faultfs.Op, _ string, seq uint64) faultfs.Fault {
				switch op {
				case faultfs.OpOpen, faultfs.OpStat, faultfs.OpReadFile:
					seq = 0
				case faultfs.OpReadAt:
				default:
					return faultfs.Fault{}
				}
				if tc.failing(seq) {
					return faultfs.Fault{Err: eio}
				}
				return faultfs.Fault{}
			})
			s = openTestStore(t, dir, func(o *Options) { o.FS = inj })
			inj.SetScript(nil)
			if st := s.Stats(); st.Corrupted != 1 || st.LiveRecords != wantLive || st.WriteErrors != 0 {
				t.Fatalf("after the faulted scan: %+v, want 1 corrupted and %d live", st, wantLive)
			}
			s.Put(query.Keys{FP: "new", CanonFP: "canonN"}, testSnapshot(t, "Q4"), true)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != before.Size() {
				t.Errorf("the unread segment changed size: %v bytes, was %d (%v)", fi.Size(), before.Size(), err)
			}
			got := replayAll(t, s)
			if len(got) != wantLive+1 || got["new"].Snap == nil {
				t.Errorf("the faulted life replays %d records, want the %d verified and its own", len(got), wantLive)
			}
			if st := s.Stats(); st.Corrupted != 1 {
				t.Errorf("%d corrupted after the replay, want the scan's 1", st.Corrupted)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			re := openTestStore(t, dir, nil)
			defer re.Close()
			if st := re.Stats(); st.LiveRecords != old+1 || st.Loaded != old+1 || st.Corrupted != 0 {
				t.Fatalf("next life: %+v, want all %d records live and nothing corrupted", st, old+1)
			}
			if got := replayAll(t, re); len(got) != old+1 || got["new"].Snap == nil {
				t.Errorf("next life replays %d records, want %d", len(got), old+1)
			}
		})
	}
}

// BenchmarkStoreScan is the layer bench of the startup scan: Open on
// one ≈ 24 MB segment of 650 frames, 370 of them live — the log
// restart_cycle reaches around its 150th cycle — and on one twice as
// long with the same 370 records live. "scanned" opens the log with no
// checkpoint beside it; with -benchmem, B/op is the window and the
// index: the same for both lengths. "checkpointed" opens it behind the
// checkpoint a clean Close left: nothing is scanned, and the cost is
// the checkpoint's read and decode — the same for both lengths.
// Reports ms/boot and scanned-B/boot.
func BenchmarkStoreScan(b *testing.B) {
	const keys = 370
	echo := "3x5|bench"
	for _, frames := range []int{650, 1300} {
		rng := rand.New(rand.NewSource(1))
		var log []byte
		for i := 0; i < frames; i++ {
			log = append(log, fakeFrame(rng, fmt.Sprintf("fp%03d", i%keys), echo, 36<<10)...)
		}
		for _, checkpointed := range []bool{false, true} {
			name := fmt.Sprintf("frames=%d/scanned", frames)
			if checkpointed {
				name = fmt.Sprintf("frames=%d/checkpointed", frames)
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				if err := os.WriteFile(filepath.Join(dir, segName(1)), log, 0o644); err != nil {
					b.Fatal(err)
				}
				wantLoaded := uint64(frames)
				if checkpointed {
					wantLoaded = keys
					s, err := Open(Options{Dir: dir, CfgEcho: echo})
					if err != nil {
						b.Fatal(err)
					}
					s.Close()
				}
				var scanned int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if !checkpointed {
						_ = os.Remove(filepath.Join(dir, checkpointName)) // the last iteration's Close left one
					}
					b.StartTimer()
					s, err := Open(Options{Dir: dir, CfgEcho: echo})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					st := s.Stats()
					scanned += st.ScanBytes
					if st.LiveRecords != keys || st.Loaded != wantLoaded || st.Corrupted != 0 {
						b.Fatalf("boot indexed %+v", st)
					}
					s.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/boot")
				b.ReportMetric(float64(scanned)/float64(b.N), "scanned-B/boot")
			})
		}
	}
}
