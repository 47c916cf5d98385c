package rangeindex

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
)

// pn returns a distinct payload node identified by its TableID.
func pn(id int) *plan.Node { return &plan.Node{TableID: id} }

// collect returns the entries a Query retrieves, in its order.
func collect(ix *Index, b cost.Vector, maxRes int, minEpoch uint64) []Entry {
	var out []Entry
	ix.Query(b, maxRes, minEpoch, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		dims, maxLevel int
		base           float64
	}{
		{0, 5, 2},
		{MaxDims + 1, 5, 2},
		{3, -1, 2},
		{3, 5, 1},
		{3, 5, 0.5},
	}
	for _, c := range cases {
		if _, err := New(c.dims, c.maxLevel, c.base); err == nil {
			t.Errorf("New(%d,%d,%g) should fail", c.dims, c.maxLevel, c.base)
		}
	}
	if _, err := New(3, 20, 2); err != nil {
		t.Fatalf("valid New failed: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(0, 0, 2)
}

func TestInsertAndLen(t *testing.T) {
	ix := MustNew(2, 3, 2)
	if ix.Len() != 0 {
		t.Fatal("fresh index not empty")
	}
	ix.Insert(Entry{Cost: cost.Vec(1, 2), Resolution: 0, Epoch: 1, Payload: pn(0)})
	ix.Insert(Entry{Cost: cost.Vec(100, 200), Resolution: 3, Epoch: 2, Payload: pn(1)})
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestInsertPanics(t *testing.T) {
	ix := MustNew(2, 3, 2)
	for name, e := range map[string]Entry{
		"wrong dim":      {Cost: cost.Vec(1), Resolution: 0},
		"bad resolution": {Cost: cost.Vec(1, 2), Resolution: 4},
		"negative res":   {Cost: cost.Vec(1, 2), Resolution: -1},
		"infinite cost":  {Cost: cost.Vec(math.Inf(1), 2), Resolution: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			ix.Insert(e)
		}()
	}
}

func TestQueryFiltersCostResolutionEpoch(t *testing.T) {
	ix := MustNew(2, 5, 2)
	ix.Insert(Entry{Cost: cost.Vec(1, 1), Resolution: 0, Epoch: 1, Payload: pn(1)})
	ix.Insert(Entry{Cost: cost.Vec(10, 10), Resolution: 2, Epoch: 2, Payload: pn(2)})
	ix.Insert(Entry{Cost: cost.Vec(100, 100), Resolution: 4, Epoch: 3, Payload: pn(3)})
	ix.Insert(Entry{Cost: cost.Vec(5, 500), Resolution: 0, Epoch: 4, Payload: pn(4)})

	collect := func(b cost.Vector, maxRes int, minEpoch uint64) map[int]bool {
		got := map[int]bool{}
		ix.Query(b, maxRes, minEpoch, func(e Entry) bool {
			got[e.Payload.TableID] = true
			return true
		})
		return got
	}

	// Cost filter.
	got := collect(cost.Vec(50, 50), 5, 0)
	if len(got) != 2 || !got[1] || !got[2] {
		t.Errorf("cost filter: %v", got)
	}
	// Resolution filter.
	got = collect(cost.Unbounded(2), 2, 0)
	if len(got) != 3 || got[3] {
		t.Errorf("resolution filter: %v", got)
	}
	// Epoch filter.
	got = collect(cost.Unbounded(2), 5, 3)
	if len(got) != 2 || !got[3] || !got[4] {
		t.Errorf("epoch filter: %v", got)
	}
	// maxRes beyond maxLevel is clamped.
	got = collect(cost.Unbounded(2), 99, 0)
	if len(got) != 4 {
		t.Errorf("clamped maxRes: %v", got)
	}
}

func TestEpochWatermark(t *testing.T) {
	ix := MustNew(2, 3, 2)
	if wm := ix.EpochWatermark(3); wm != 0 {
		t.Fatalf("empty watermark = %d", wm)
	}
	ix.Insert(Entry{Cost: cost.Vec(1, 1), Resolution: 0, Epoch: 2, Payload: pn(0)})
	ix.Insert(Entry{Cost: cost.Vec(2, 2), Resolution: 2, Epoch: 7, Payload: pn(1)})
	if wm := ix.EpochWatermark(1); wm != 2 {
		t.Errorf("watermark(res<=1) = %d, want 2", wm)
	}
	if wm := ix.EpochWatermark(3); wm != 7 {
		t.Errorf("watermark(res<=3) = %d, want 7", wm)
	}
	if wm := ix.EpochWatermark(99); wm != 7 {
		t.Errorf("clamped watermark = %d, want 7", wm)
	}
	// Watermarks let minEpoch queries skip stale levels entirely; the
	// filter must stay exact either way.
	got := collect(ix, cost.Unbounded(2), 3, 5)
	if len(got) != 1 || got[0].Payload.TableID != 1 {
		t.Errorf("minEpoch query over watermarked levels = %v", got)
	}
}

func TestQueryEarlyStop(t *testing.T) {
	ix := MustNew(1, 0, 2)
	for i := 0; i < 10; i++ {
		ix.Insert(Entry{Cost: cost.Vec(float64(i + 1)), Resolution: 0, Payload: pn(i)})
	}
	count := 0
	ix.Query(cost.Unbounded(1), 0, 0, func(Entry) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestQueryPanicsOnDimMismatch(t *testing.T) {
	ix := MustNew(2, 0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Query with wrong bound dim did not panic")
		}
	}()
	ix.Query(cost.Vec(1), 0, 0, func(Entry) bool { return true })
}

func TestDrainRemovesMatching(t *testing.T) {
	const (
		keepRes = iota
		drainMe
		tooBig
		high
	)
	ix := MustNew(2, 2, 2)
	ix.Insert(Entry{Cost: cost.Vec(1, 1), Resolution: 0, Payload: pn(keepRes)})
	ix.Insert(Entry{Cost: cost.Vec(2, 2), Resolution: 2, Payload: pn(drainMe)})
	ix.Insert(Entry{Cost: cost.Vec(999, 999), Resolution: 0, Payload: pn(tooBig)})

	out := ix.Drain(cost.Vec(10, 10), 2, nil)
	if len(out) != 2 {
		t.Fatalf("drained %d, want 2", len(out))
	}
	if ix.Len() != 1 {
		t.Fatalf("Len after drain = %d, want 1", ix.Len())
	}
	rest := collect(ix, cost.Unbounded(2), 2, 0)
	if len(rest) != 1 || rest[0].Payload.TableID != tooBig {
		t.Fatalf("remaining = %v", rest)
	}
	// Drain with restricted resolution leaves higher levels alone:
	// "tooBig" (res 0) is drained, "high" (res 2) survives. Reusing the
	// previous output as scratch must not leak the old entries.
	ix.Insert(Entry{Cost: cost.Vec(1, 1), Resolution: 2, Payload: pn(high)})
	out = ix.Drain(cost.Unbounded(2), 1, out[:0])
	if len(out) != 1 || out[0].Payload.TableID != tooBig {
		t.Fatalf("drain res<=1 removed %v, want tooBig only", out)
	}
	if rest := collect(ix, cost.Unbounded(2), 2, 0); len(rest) != 1 || rest[0].Payload.TableID != high {
		t.Fatalf("remaining after res-limited drain = %v", rest)
	}
}

func TestAll(t *testing.T) {
	ix := MustNew(2, 1, 2)
	for i := 0; i < 5; i++ {
		ix.Insert(Entry{Cost: cost.Vec(float64(i), 1), Resolution: i % 2, Payload: pn(i)})
	}
	count := 0
	ix.All(func(Entry) bool { count++; return true })
	if count != 5 {
		t.Errorf("All visited %d", count)
	}
	count = 0
	ix.All(func(Entry) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("All early stop visited %d", count)
	}
}

func TestZeroCostVectorsIndexable(t *testing.T) {
	ix := MustNew(3, 0, 2)
	ix.Insert(Entry{Cost: cost.Vec(0, 0, 0), Resolution: 0, Payload: pn(0)})
	got := collect(ix, cost.Vec(0, 0, 0), 0, 0)
	if len(got) != 1 {
		t.Fatalf("zero-cost entry not found: %v", got)
	}
}

// TestQueryAllocFree pins the tentpole guarantee of this package: a
// range query performs zero heap allocations (the bound's coordinates
// are one packed word and cells are enumerated in place).
func TestQueryAllocFree(t *testing.T) {
	ix := MustNew(3, 20, 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ix.Insert(Entry{
			Cost:       cost.Vec(rng.Float64()*1e6, rng.Float64()*8, rng.Float64()),
			Resolution: i % 21,
			Epoch:      uint64(i % 3),
			Payload:    pn(i),
		})
	}
	bound := cost.Vec(5e5, 4, 0.5)
	sink := 0
	visit := func(e Entry) bool { sink += e.Payload.TableID; return true }
	if allocs := testing.AllocsPerRun(200, func() {
		ix.Query(bound, 10, 0, visit)
	}); allocs != 0 {
		t.Errorf("steady-state Query allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ix.Query(bound, 20, 2, visit)
	}); allocs != 0 {
		t.Errorf("steady-state minEpoch Query allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ix.QueryLevel(bound, 7, 1, visit)
	}); allocs != 0 {
		t.Errorf("steady-state QueryLevel allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}

// naive is a reference implementation: a flat slice with linear scans.
type naive struct {
	entries []Entry
}

func (n *naive) insert(e Entry) { n.entries = append(n.entries, e) }
func (n *naive) query(b cost.Vector, maxRes int, minEpoch uint64) []Entry {
	var out []Entry
	for _, e := range n.entries {
		if e.Resolution <= maxRes && e.Epoch >= minEpoch && e.Cost.WithinBounds(b) {
			out = append(out, e)
		}
	}
	return out
}
func (n *naive) drain(b cost.Vector, maxRes int) []Entry {
	var out []Entry
	kept := n.entries[:0]
	for _, e := range n.entries {
		if e.Resolution <= maxRes && e.Cost.WithinBounds(b) {
			out = append(out, e)
		} else {
			kept = append(kept, e)
		}
	}
	n.entries = kept
	return out
}

// allOf returns the index's entries in enumeration order.
func allOf(ix *Index) []Entry {
	var out []Entry
	ix.All(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func payloads(entries []Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.Payload.TableID
	}
	return out
}

// Property: the cell index agrees with the naive implementation under a
// randomized workload of inserts, queries and drains. Every other trial
// also rebuilds its index now and then by adopting the Image of the
// enumeration of a twin that only ever saw Insert and Drain, which a
// bystander index adopts too: the rebuilt index must retrieve what the
// twin retrieves, in the twin's order, and must leave the lists it was
// built from, and the bystanders, as they were.
func TestQuickAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		dims := 1 + rng.Intn(3)
		maxLevel := rng.Intn(6)
		base := 1.05 + rng.Float64()*2.5
		ix := MustNew(dims, maxLevel, base)
		var twin *Index
		if trial%2 == 1 {
			twin = MustNew(dims, maxLevel, base)
		}
		var loaded, loadedCopies [][]Entry
		var bystanders []*Index
		ref := &naive{}
		id := 0
		for op := 0; op < 200; op++ {
			switch rng.Intn(9) {
			case 0, 1, 2, 3: // insert
				v := make(cost.Vector, dims)
				for d := range v {
					v[d] = math.Pow(10, rng.Float64()*6) - 1
				}
				e := Entry{Cost: v, Resolution: rng.Intn(maxLevel + 1), Epoch: uint64(rng.Intn(5)), Payload: pn(id)}
				id++
				ix.Insert(e)
				ref.insert(e)
				if twin != nil {
					twin.Insert(e)
				}
			case 4, 5: // query
				b := randomBound(rng, dims)
				maxRes := rng.Intn(maxLevel + 2)
				minEpoch := uint64(rng.Intn(5))
				got := collect(ix, b, maxRes, minEpoch)
				want := payloadSet(ref.query(b, maxRes, minEpoch))
				if !sameSet(payloadSet(got), want) {
					t.Fatalf("query mismatch: got %v want %v", payloadSet(got), want)
				}
				if twin != nil && !slices.Equal(payloads(got), payloads(collect(twin, b, maxRes, minEpoch))) {
					t.Fatalf("trial %d: a loaded index queries in another order than its twin", trial)
				}
				// One level of the same retrieval, in the same order.
				var level, wantLevel []int
				ix.QueryLevel(b, maxRes, minEpoch, func(e Entry) bool {
					level = append(level, e.Payload.TableID)
					return true
				})
				for _, e := range got {
					if e.Resolution == maxRes {
						wantLevel = append(wantLevel, e.Payload.TableID)
					}
				}
				if !slices.Equal(level, wantLevel) {
					t.Fatalf("trial %d: QueryLevel(%d) = %v, want Query's level-%d entries %v", trial, maxRes, level, maxRes, wantLevel)
				}
			case 6, 7: // drain
				b := randomBound(rng, dims)
				maxRes := rng.Intn(maxLevel + 2)
				got := ix.Drain(b, maxRes, nil)
				want := payloadSet(ref.drain(b, maxRes))
				if !sameSet(payloadSet(got), want) {
					t.Fatalf("drain mismatch: got %v want %v", payloadSet(got), want)
				}
				if twin != nil && !slices.Equal(payloads(got), payloads(twin.Drain(b, maxRes, nil))) {
					t.Fatalf("trial %d: a loaded index drains in another order than its twin", trial)
				}
				if ix.Len() != len(ref.entries) {
					t.Fatalf("size mismatch after drain: %d vs %d", ix.Len(), len(ref.entries))
				}
				unbounded := cost.Unbounded(dims)
				for res := 0; res <= maxLevel+1; res++ {
					if got, want := ix.LenUpTo(res), len(ref.query(unbounded, res, 0)); got != want {
						t.Fatalf("LenUpTo(%d) = %d after drain, want %d", res, got, want)
					}
				}
			case 8: // rebuild by adopting the twin's image
				if twin == nil {
					continue
				}
				list := allOf(twin)
				loaded, loadedCopies = append(loaded, list), append(loadedCopies, slices.Clone(list))
				ix = MustNew(dims, maxLevel, base)
				img := ix.Freeze(list)
				if img == nil {
					t.Fatalf("trial %d: Freeze refused a list in enumeration order", trial)
				}
				ix.Adopt(img)
				bystander := MustNew(dims, maxLevel, base)
				bystander.Adopt(img)
				bystanders = append(bystanders, bystander)
				if len(list) > 0 && &ix.levels[list[0].Resolution].cells[0].entries[0] != &list[0] {
					t.Fatalf("trial %d: Adopt copied a list in enumeration order", trial)
				}
			}
			if twin != nil && !slices.Equal(payloads(allOf(ix)), payloads(allOf(twin))) {
				t.Fatalf("trial %d op %d: a loaded index enumerates in another order than its twin", trial, op)
			}
		}
		for i := range loaded {
			if !slices.EqualFunc(loaded[i], loadedCopies[i], func(a, b Entry) bool { return a.Payload == b.Payload }) {
				t.Fatalf("trial %d: an index wrote the list it was loaded from", trial)
			}
		}
		for _, by := range bystanders {
			img := by.Frozen()
			if img == nil || !slices.Equal(payloads(allOf(by)), payloads(img.Entries())) {
				t.Fatalf("trial %d: a bystander no longer enumerates the image it adopted", trial)
			}
			fresh := MustNew(dims, maxLevel, base)
			for _, e := range img.Entries() {
				fresh.Insert(e)
			}
			for q := 0; q < 10; q++ {
				b := randomBound(rng, dims)
				maxRes, minEpoch := rng.Intn(maxLevel+2), uint64(rng.Intn(5))
				if !slices.Equal(payloads(collect(by, b, maxRes, minEpoch)), payloads(collect(fresh, b, maxRes, minEpoch))) {
					t.Fatalf("trial %d: a bystander retrieves other entries than a fresh load of its image", trial)
				}
			}
		}
	}
}

// TestEnumerationOrder pins the order core's outcomes depend on: Query,
// Drain and All enumerate ascending level, ascending cell key, insertion
// order within a cell — whatever mix of Insert, Drain and Adopt put the
// entries there. The model is the list of live entries in arrival order.
func TestEnumerationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const dims, maxLevel = 2, 3
	ix := MustNew(dims, maxLevel, 1.3)
	var live []Entry // in arrival order
	id := 0
	fresh := func(n int) []Entry {
		out := make([]Entry, n)
		for i := range out {
			// A coarse grid of costs: cells hold several entries, and
			// several cells share each coordinate.
			v := cost.Vec(float64(1+rng.Intn(6))*10, float64(1+rng.Intn(6))*10)
			out[i] = Entry{Cost: v, Resolution: rng.Intn(maxLevel + 1), Payload: pn(id)}
			id++
		}
		return out
	}
	// expected sorts a copy of the live entries within b into enumeration
	// order; the sort is stable, so arrival order breaks ties.
	expected := func(b cost.Vector, maxRes int) []int {
		var in []Entry
		for _, e := range live {
			if e.Resolution <= maxRes && e.Cost.WithinBounds(b) {
				in = append(in, e)
			}
		}
		slices.SortStableFunc(in, func(x, y Entry) int {
			if x.Resolution != y.Resolution {
				return x.Resolution - y.Resolution
			}
			return cmp.Compare(ix.cellKey(x.Cost), ix.cellKey(y.Cost))
		})
		return payloads(in)
	}
	check := func(step string) {
		t.Helper()
		unbounded := cost.Unbounded(dims)
		if got, want := payloads(allOf(ix)), expected(unbounded, maxLevel); !slices.Equal(got, want) {
			t.Fatalf("after %s: All enumerates %v, want %v", step, got, want)
		}
		b, maxRes := cost.Vec(45, 35), 2
		if got, want := payloads(collect(ix, b, maxRes, 0)), expected(b, maxRes); !slices.Equal(got, want) {
			t.Fatalf("after %s: Query enumerates %v, want %v", step, got, want)
		}
	}
	drain := func(b cost.Vector, maxRes int) {
		t.Helper()
		want := expected(b, maxRes)
		if got := payloads(ix.Drain(b, maxRes, nil)); !slices.Equal(got, want) {
			t.Fatalf("Drain enumerates %v, want %v", got, want)
		}
		live = slices.DeleteFunc(live, func(e Entry) bool { return e.Resolution <= maxRes && e.Cost.WithinBounds(b) })
	}

	for _, e := range fresh(60) {
		ix.Insert(e)
		live = append(live, e)
	}
	check("inserts")
	drain(cost.Vec(35, 55), 1)
	check("a drain")

	// A list in enumeration order, adopted by an empty index: windows.
	list := allOf(ix)
	ix = MustNew(dims, maxLevel, 1.3)
	ix.Adopt(ix.Freeze(list))
	live = slices.Clone(list)
	check("Adopt into an empty index")
	for _, e := range fresh(40) {
		ix.Insert(e)
		live = append(live, e)
	}
	check("inserts into loaded cells")
	drain(cost.Vec(25, 45), 3)
	check("a drain of loaded cells")

	drain(cost.Unbounded(dims), maxLevel)
	if ix.Len() != 0 {
		t.Fatalf("%d entries left after an unbounded drain", ix.Len())
	}
}

// TestFreezePanics: Freeze rejects what Insert rejects.
func TestFreezePanics(t *testing.T) {
	good := Entry{Cost: cost.Vec(1, 2), Resolution: 0, Payload: pn(0)}
	for name, bad := range map[string]Entry{
		"wrong dim":      {Cost: cost.Vec(1), Resolution: 0},
		"bad resolution": {Cost: cost.Vec(1, 2), Resolution: 4},
		"negative res":   {Cost: cost.Vec(1, 2), Resolution: -1},
		"infinite cost":  {Cost: cost.Vec(math.Inf(1), 2), Resolution: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Freeze of an entry with %s did not panic", name)
				}
			}()
			MustNew(2, 3, 2).Freeze([]Entry{good, bad})
		}()
	}
}

func randomBound(rng *rand.Rand, dims int) cost.Vector {
	b := make(cost.Vector, dims)
	for d := range b {
		if rng.Float64() < 0.2 {
			b[d] = math.Inf(1)
		} else {
			b[d] = math.Pow(10, rng.Float64()*6)
		}
	}
	return b
}

func payloadSet(entries []Entry) map[int]bool {
	out := map[int]bool{}
	for _, e := range entries {
		out[e.Payload.TableID] = true
	}
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func BenchmarkInsert(b *testing.B) {
	ix := MustNew(3, 20, 2)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Insert(Entry{
			Cost:       cost.Vec(rng.Float64()*1e6, rng.Float64()*8, rng.Float64()),
			Resolution: i % 21,
			Payload:    pn(i),
		})
	}
}

func BenchmarkQuery1000(b *testing.B) {
	ix := MustNew(3, 20, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ix.Insert(Entry{
			Cost:       cost.Vec(rng.Float64()*1e6, rng.Float64()*8, rng.Float64()),
			Resolution: i % 21,
			Payload:    pn(i),
		})
	}
	bound := cost.Vec(5e5, 4, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ix.Query(bound, 10, 0, func(Entry) bool { n++; return true })
	}
}

// TestAdoptContract: Freeze refuses a list out of enumeration order,
// Adopt refuses a populated index and an image of another geometry, and
// Frozen reports the adopted image until the first write — an Insert,
// or a Drain that removes something — and nil after it.
func TestAdoptContract(t *testing.T) {
	ix := MustNew(2, 3, 2)
	for i := 0; i < 20; i++ {
		ix.Insert(Entry{Cost: cost.Vec(float64(i*i), float64(20-i)), Resolution: i % 4, Payload: pn(i)})
	}
	list := allOf(ix)
	reversed := slices.Clone(list)
	slices.Reverse(reversed)
	if MustNew(2, 3, 2).Freeze(reversed) != nil {
		t.Error("Freeze accepted a list out of enumeration order")
	}
	img := MustNew(2, 3, 2).Freeze(list)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Adopt into a populated index", func() { ix.Adopt(img) })
	mustPanic("Adopt at another base", func() { MustNew(2, 3, 3).Adopt(img) })
	mustPanic("Adopt at another dimension", func() { MustNew(3, 3, 2).Adopt(img) })
	mustPanic("Adopt at another level count", func() { MustNew(2, 2, 2).Adopt(img) })

	a := MustNew(2, 3, 2)
	a.Adopt(img)
	if a.Frozen() != img || a.Len() != len(list) {
		t.Fatalf("an adopted index reports image %p of %d entries", a.Frozen(), a.Len())
	}
	if got := a.Drain(cost.Vec(-1, -1), 3, nil); len(got) != 0 || a.Frozen() != img {
		t.Error("a Drain that removed nothing ended the index's claim to its image")
	}
	if got := a.Drain(cost.Vec(10, 30), 3, nil); len(got) == 0 || a.Frozen() != nil {
		t.Errorf("a Drain that removed %d entries left the image claimed", len(got))
	}
	b := MustNew(2, 3, 2)
	b.Adopt(img)
	b.Insert(Entry{Cost: cost.Vec(1, 1), Resolution: 0, Payload: pn(99)})
	if b.Frozen() != nil {
		t.Error("an Insert left the image claimed")
	}
	if !slices.Equal(payloads(img.Entries()), payloads(list)) || !slices.Equal(payloads(allOf(ix)), payloads(list)) {
		t.Error("writes to adopting indexes changed the image's list")
	}
	c := MustNew(2, 3, 2)
	c.Adopt(img)
	if !slices.Equal(payloads(allOf(c)), payloads(list)) {
		t.Error("a later adopter does not enumerate the image's list")
	}
}
