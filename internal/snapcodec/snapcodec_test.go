package snapcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
	"repro/internal/workload"
)

func testConfig(levels int) core.Config {
	return core.Config{
		Model:            costmodel.Default(),
		ResolutionLevels: levels,
		TargetPrecision:  1.01,
		PrecisionStep:    0.05,
	}
}

// convergedSnapshot optimizes block name to target precision and
// exports the snapshot.
func convergedSnapshot(t testing.TB, name string, cfg core.Config) (*query.Query, *core.Snapshot) {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), name)
	if !ok {
		t.Fatalf("unknown block %s", name)
	}
	opt := core.MustNewOptimizer(blk.Query, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	snap := opt.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot after convergence")
	}
	return blk.Query, snap
}

// frontier renders a result set order-independently including cost
// vectors, mirroring core's remap acceptance pin: equality means a
// cost-identical restore.
func frontier(o *core.Optimizer, r int) []string {
	var out []string
	for _, p := range o.Results(nil, r) {
		out = append(out, p.Signature()+"|"+p.Cost.String())
	}
	sort.Strings(out)
	return out
}

// restoreAndConverge restores q from snap and drives it through a full
// resolution sweep, returning the final frontier and the number of
// plans the restored optimizer had to regenerate.
func restoreAndConverge(t testing.TB, q *query.Query, cfg core.Config, snap *core.Snapshot) ([]string, int) {
	t.Helper()
	opt, err := core.NewOptimizerFromSnapshot(q, cfg, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	return frontier(opt, cfg.MaxResolution()), opt.Stats().PlansGenerated
}

// TestCodecRoundTripCostIdentical is the acceptance pin for the wire
// format, mirroring TestSnapshotRemapRestoresCostIdentical: a snapshot
// that went through encode→decode must restore into an optimizer that
// exposes exactly the plans (structure AND cost vectors) the original
// snapshot's restore exposes, regenerating none of them.
func TestCodecRoundTripCostIdentical(t *testing.T) {
	for _, name := range []string{"Q4", "Q3", "Q10"} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(4)
			q, snap := convergedSnapshot(t, name, cfg)
			data, err := Encode(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			want, wantGen := restoreAndConverge(t, q, cfg, snap)
			got, gotGen := restoreAndConverge(t, q, cfg, decoded)
			if wantGen != 0 || gotGen != 0 {
				t.Errorf("regenerated plans: original restore %d, decoded restore %d, want 0/0", wantGen, gotGen)
			}
			if len(want) == 0 {
				t.Fatal("empty frontier")
			}
			if len(got) != len(want) {
				t.Fatalf("decoded restore has %d frontier plans, original %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("decoded restore diverges:\n  %s\nvs\n  %s", got[i], want[i])
				}
			}
		})
	}
}

// TestRestoredReexportMatchesUnsharedControl drags a session restored
// from a snapshot — sharing its frozen pair memo (DESIGN.md D8) — out of
// the snapshot's regime, and checks its re-export against a control
// restored from a decoded copy that shares nothing: byte-equal
// encodings, a clean round trip, and a source snapshot that still
// encodes to the bytes it had before anyone restored from it.
func TestRestoredReexportMatchesUnsharedControl(t *testing.T) {
	cfg := testConfig(4)
	blk, _ := workload.Find(workload.MustTPCHBlocks(1), "Q3")
	q, rM := blk.Query, cfg.MaxResolution()
	src := core.MustNewOptimizer(q, cfg)
	src.Optimize(nil, 0)
	first := src.Results(nil, 0)
	if len(first) == 0 {
		t.Fatal("empty first frontier")
	}
	tight := first[0].Cost.Clone()
	for _, p := range first {
		for d := range tight {
			tight[d] = min(tight[d], 2*p.Cost[d])
		}
	}
	for r := 0; r <= rM; r++ {
		src.Optimize(tight, r)
	}
	snap := src.Snapshot()
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	var reexports [][]byte
	for _, from := range []*core.Snapshot{snap, unshared} {
		opt, err := core.NewOptimizerFromSnapshot(q, cfg, from)
		if err != nil {
			t.Fatal(err)
		}
		// The ledger travels with both copies: the opening step is covered
		// (the source's first invocation completed the unbounded focus at
		// resolution 0), and the pairs are combined by the steps after it.
		opt.Optimize(nil, 0)
		if st := opt.Stats(); st.CoveredInvocations != 1 || st.PairsCombined != 0 {
			t.Fatalf("the opening step was not covered: %v", st)
		}
		for r := 1; r <= rM; r++ {
			opt.Optimize(nil, r)
		}
		// The source's anchored series recorded its bounded foci; the
		// unbounded ones above level 0 are this regime's to walk.
		if st := opt.Stats(); st.PairsCombined == 0 || st.CoveredInvocations != 1 {
			t.Fatalf("the relax combined no pairs, or more than its opening step was covered; the test lost its premise: %v", st)
		}
		re, err := Encode(nil, opt.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		reexports = append(reexports, re)
	}
	if !bytes.Equal(reexports[0], reexports[1]) {
		t.Error("re-export of the memo-sharing restore differs from the unshared control's")
	}
	decoded, err := Decode(reexports[0])
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Encode(nil, decoded); err != nil || !bytes.Equal(again, reexports[0]) {
		t.Errorf("re-export does not round-trip (err %v)", err)
	}
	if after, err := Encode(nil, snap); err != nil || !bytes.Equal(after, data) {
		t.Errorf("the source snapshot encodes differently after restores ran on it (err %v)", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	cfg := testConfig(3)
	_, snap := convergedSnapshot(t, "Q3", cfg)
	a, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one snapshot differ (map-order leak)")
	}
}

// reseal recomputes the CRC trailer after a deliberate header edit, so
// the test reaches the check behind the checksum.
func reseal(data []byte) {
	crc := crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	cfg := testConfig(2)
	_, snap := convergedSnapshot(t, "Q4", cfg)
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:], Version+1)
	reseal(data)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Errorf("future-version record: got %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsBadMagicAndShortInput(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTooShort) {
		t.Errorf("nil input: got %v, want ErrTooShort", err)
	}
	if _, err := Decode(make([]byte, 64)); !errors.Is(err, ErrMagic) {
		t.Errorf("zero input: got %v, want ErrMagic", err)
	}
}

func TestDecodeRejectsTruncationAndCorruption(t *testing.T) {
	cfg := testConfig(2)
	_, snap := convergedSnapshot(t, "Q4", cfg)
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	// Every truncation must fail (the trailer CRC no longer matches, or
	// the envelope is too short).
	for n := 0; n < len(data); n += 97 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Every single-byte flip must fail: CRC32C detects all of them, and
	// flips inside the envelope fail their own checks first.
	for i := 0; i < len(data); i += 13 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
}

// ledgerOffset returns the offset of the ledger's level count inside an
// encoded record (behind header, config echo, nextID, epoch, prevRes and
// prevBounds).
func ledgerOffset(t *testing.T, data []byte) int {
	t.Helper()
	off := headerLen
	skip := func() uint64 {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatal("cannot parse own record")
		}
		off += n
		return v
	}
	off += int(skip()) // cfgEcho
	skip()             // nextID
	skip()             // epoch
	skip()             // prevRes
	off += 8 * int(skip())
	return off
}

// TestLedgerSurvivesCodec is the codec leg of core's TestLedgerLifecycle:
// the completed-focus ledger (DESIGN.md D18) comes back from the wire as
// it went in, so a restore of the decoded record opens with a covered
// step — and a ledger that is not one is refused, because a restored
// optimizer skips whole invocations on its word.
func TestLedgerSurvivesCodec(t *testing.T) {
	cfg := testConfig(4)
	q, snap := convergedSnapshot(t, "Q3", cfg)
	want := snap.Wire().Done
	if len(want) != cfg.ResolutionLevels || want[0] == nil || !math.IsInf(want[0][0], 1) {
		t.Fatalf("source ledger %v does not record the unbounded opening focus", want)
	}
	// The cold convergence is an anchored series: every level records.
	for r, d := range want {
		if d == nil || !math.IsInf(d[0], 1) {
			t.Fatalf("source ledger %v does not record the unbounded focus at level %d", want, r)
		}
	}
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.Wire().Done
	if len(got) != len(want) {
		t.Fatalf("decoded ledger has %d levels, want %d", len(got), len(want))
	}
	for r := range want {
		if (got[r] == nil) != (want[r] == nil) || !got[r].Equal(want[r]) {
			t.Errorf("level %d: decoded %v, want %v", r, got[r], want[r])
		}
	}
	opt, err := core.NewOptimizerFromSnapshot(q, cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(nil, 0)
	if st := opt.Stats(); st.CoveredInvocations != 1 || st.PairsSkippedStale != 0 {
		t.Errorf("the decoded record's opening step was not covered: %v", st)
	}
	for r := 1; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	if st := opt.Stats(); st.CoveredInvocations != cfg.ResolutionLevels || st.PairsSkippedStale != 0 {
		t.Errorf("the decoded record's regime was not covered at every step: %v", st)
	}

	at := ledgerOffset(t, data)
	if int(data[at]) != cfg.ResolutionLevels || data[at+1] != 1 {
		t.Fatalf("ledger not where the format puts it: count %d flag %d", data[at], data[at+1])
	}
	for name, mutate := range map[string]func(mut []byte){
		"more levels than the echo": func(mut []byte) { mut[at]++ },
		"flag byte":                 func(mut []byte) { mut[at+1] = 2 },
		"NaN bound": func(mut []byte) {
			binary.LittleEndian.PutUint64(mut[at+2:], math.Float64bits(math.NaN()))
		},
		"negative bound": func(mut []byte) {
			binary.LittleEndian.PutUint64(mut[at+2:], math.Float64bits(-1))
		},
	} {
		mut := append([]byte(nil), data...)
		mutate(mut)
		reseal(mut)
		if _, err := Decode(mut); err == nil || !strings.Contains(err.Error(), "ledger") {
			t.Errorf("%s: got %v, want a ledger error", name, err)
		}
	}
}

// TestRestoreRejectsConfigMismatch pins the config gate behind the
// codec: a decoded snapshot carries its cfgEcho, and restoring it
// under any other optimizer configuration must refuse.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	cfg := testConfig(3)
	q, snap := convergedSnapshot(t, "Q4", cfg)
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.TargetPrecision = 1.02
	if _, err := core.NewOptimizerFromSnapshot(q, other, decoded); err == nil {
		t.Error("restore under a different config accepted")
	}
	if echo, err := core.ConfigFingerprint(cfg); err != nil || decoded.CfgEcho() != echo {
		t.Errorf("decoded cfgEcho %q does not match source config (%v)", decoded.CfgEcho(), err)
	}
}

// FuzzSnapshotCodec drives the round-trip invariant over randomized
// synthetic queries (topology, size, seed, refinement depth all drawn
// from the fuzz input): encode→decode→restore must be cost-identical
// to restoring the original snapshot with zero regenerated plans, and
// any single-byte corruption of the encoding must fail to decode.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0), uint8(2), uint16(7))
	f.Add(int64(7), uint8(4), uint8(1), uint8(3), uint16(101))
	f.Add(int64(42), uint8(2), uint8(3), uint8(1), uint16(9999))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, tables, topology, levels uint8, flip uint16) {
		nTables := 2 + int(tables)%3 // 2..4
		nLevels := 1 + int(levels)%3 // 1..3
		tp := query.Topology(int(topology) % 4)
		rng := rand.New(rand.NewSource(seed))
		cat := catalog.Random(rng, nTables, 100, 1e6)
		q, err := query.Synthetic(cat, nTables, tp, rng)
		if err != nil {
			t.Skip() // e.g. a topology/size combination Synthetic refuses
		}
		cfg := testConfig(nLevels)
		opt, err := core.NewOptimizer(q, cfg)
		if err != nil {
			t.Skip()
		}
		for r := 0; r <= cfg.MaxResolution(); r++ {
			opt.Optimize(nil, r)
		}
		snap := opt.Snapshot()
		data, err := Encode(nil, snap)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if a, b := snap.Wire().Done, decoded.Wire().Done; !slices.EqualFunc(a, b, cost.Vector.Equal) {
			t.Fatalf("ledger %v decoded as %v", a, b)
		}
		want, wantGen := restoreAndConverge(t, q, cfg, snap)
		got, gotGen := restoreAndConverge(t, q, cfg, decoded)
		if wantGen != 0 || gotGen != 0 {
			t.Fatalf("regenerated plans: original %d, decoded %d", wantGen, gotGen)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded restore has %d frontier plans, original %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decoded restore diverges at %d:\n  %s\nvs\n  %s", i, got[i], want[i])
			}
		}
		// Corruption must never decode (CRC32C catches any single-byte
		// error); it must error out, not panic.
		mut := append([]byte(nil), data...)
		mut[int(flip)%len(mut)] ^= 1 + byte(flip>>8)
		if _, err := Decode(mut); err == nil {
			t.Fatalf("single-byte corruption at %d accepted", int(flip)%len(mut))
		}
	})
}

// TestDecodeCostsClippedAndAliased pins the two properties of the cost
// vectors a decode carves from one slab per record: each is cap-clipped,
// so appending to one reallocates instead of overwriting its neighbour,
// and every entry's Cost is its payload's vector (D12's aliasing).
func TestDecodeCostsClippedAndAliased(t *testing.T) {
	_, snap := convergedSnapshot(t, "Q4", testConfig(3))
	data, err := Encode(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*plan.Node]cost.Vector{}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = slices.Clone(n.Cost)
		if !n.IsScan() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	w := decoded.Wire()
	entries := 0
	for _, set := range []map[tableset.Set][]rangeindex.Entry{w.Res, w.Cand} {
		for _, es := range set {
			for i := range es {
				e := &es[i]
				entries++
				if len(e.Cost) == 0 || len(e.Cost) != len(e.Payload.Cost) || &e.Cost[0] != &e.Payload.Cost[0] {
					t.Fatalf("entry of node %d: Cost does not alias Payload.Cost", e.Payload.ID())
				}
				walk(e.Payload)
			}
		}
	}
	if entries == 0 || len(seen) < 2 {
		t.Fatalf("%d entries over %d nodes: nothing to check", entries, len(seen))
	}
	for n := range seen {
		if cap(n.Cost) != len(n.Cost) {
			t.Fatalf("node %d cost has cap %d, len %d: not clipped", n.ID(), cap(n.Cost), len(n.Cost))
		}
		_ = append(n.Cost, -1)
	}
	for n, want := range seen {
		if !n.Cost.Equal(want) {
			t.Fatalf("node %d cost %v, was %v before its neighbours were appended to", n.ID(), n.Cost, want)
		}
	}
}

// BenchmarkDecode is the layer bench of one boot-time fetch's decode:
// a converged chain4 snapshot and a converged TPC-H block (Q10) at
// moqod's default five resolution levels, decoded from their wire form.
func BenchmarkDecode(b *testing.B) {
	cfg := testConfig(5)
	chain, err := query.Synthetic(catalog.TPCH(1), 4, query.Chain, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	opt := core.MustNewOptimizer(chain, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		opt.Optimize(nil, r)
	}
	_, q10 := convergedSnapshot(b, "Q10", cfg)
	for _, tc := range []struct {
		name string
		snap *core.Snapshot
	}{{"chain4", opt.Snapshot()}, {"Q10", q10}} {
		data, err := Encode(nil, tc.snap)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRestoredRegimeIsCovered pins what an exact-tier hit costs in
// core: a converged chain4 or star4 snapshot — as exported, decoded,
// and re-exported by an optimizer restored from it — restores into an
// optimizer whose whole regime r = 0 … r_M is covered by the ledger
// the cold convergence recorded (DESIGN.md D18), generating nothing.
func TestRestoredRegimeIsCovered(t *testing.T) {
	cfg := testConfig(5)
	rM := cfg.MaxResolution()
	for _, shape := range []struct {
		name string
		tp   query.Topology
		seed int64
	}{{"chain4", query.Chain, 11}, {"star4", query.Star, 12}} {
		q, err := query.Synthetic(catalog.TPCH(1), 4, shape.tp, rand.New(rand.NewSource(shape.seed)))
		if err != nil {
			t.Fatal(err)
		}
		src := core.MustNewOptimizer(q, cfg)
		for r := 0; r <= rM; r++ {
			src.Optimize(nil, r)
		}
		snap := src.Snapshot()
		data, err := Encode(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		// regime restores s and runs the regime it was converged for.
		regime := func(s *core.Snapshot) *core.Optimizer {
			t.Helper()
			o, err := core.NewOptimizerFromSnapshot(q, cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r <= rM; r++ {
				o.Optimize(nil, r)
			}
			return o
		}
		reexported := regime(snap).Snapshot()
		for _, from := range []struct {
			name string
			snap *core.Snapshot
		}{{"exact", snap}, {"decoded", decoded}, {"reexported", reexported}} {
			st := regime(from.snap).Stats()
			if st.Invocations != rM+1 || st.CoveredInvocations != rM+1 || st.PlansGenerated != 0 ||
				st.PairsSkippedStale != 0 || st.CandidateRetrievals != 0 {
				t.Errorf("%s/%s: the restored regime was not covered at every step: %v", shape.name, from.name, st)
			}
		}
	}
}
