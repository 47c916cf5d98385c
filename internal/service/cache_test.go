package service

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/query"
)

// getExact is Lookup restricted to the exact tier, the shape most of
// the LRU assertions need.
func getExact(c *PlanCache, fp string) (*core.Snapshot, bool) {
	h, ok := c.Lookup(query.Keys{FP: fp}, nil)
	if !ok || h.Tier != query.TierExact {
		return nil, false
	}
	return h.Snap, true
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2, metrics.NewRegistry())
	snaps := make([]*core.Snapshot, 3)
	for i := range snaps {
		snaps[i] = &core.Snapshot{}
		c.Put(query.Keys{FP: fmt.Sprintf("fp%d", i), CanonFP: fmt.Sprintf("c%d", i)}, snaps[i])
	}
	// fp0 is the LRU entry and must have been evicted by fp2.
	if _, ok := getExact(c, "fp0"); ok {
		t.Error("fp0 survived beyond capacity 2")
	}
	if s, ok := getExact(c, "fp1"); !ok || s != snaps[1] {
		t.Error("fp1 missing or wrong snapshot")
	}
	if s, ok := getExact(c, "fp2"); !ok || s != snaps[2] {
		t.Error("fp2 missing or wrong snapshot")
	}
	// Touch fp1, insert fp3: fp2 is now LRU and must go.
	getExact(c, "fp1")
	c.Put(query.Keys{FP: "fp3", CanonFP: "c3"}, &core.Snapshot{})
	if _, ok := getExact(c, "fp2"); ok {
		t.Error("fp2 survived though it was LRU")
	}
	if _, ok := getExact(c, "fp1"); !ok {
		t.Error("recently used fp1 evicted")
	}

	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 4 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 4/2", st.Hits, st.Misses)
	}
	if st.ExactHits != st.Hits || st.IsoHits != 0 {
		t.Errorf("exact/iso split = %d/%d, want %d/0", st.ExactHits, st.IsoHits, st.Hits)
	}
}

func TestPlanCacheIgnoresNil(t *testing.T) {
	c := NewPlanCache(4, metrics.NewRegistry())
	c.Put(query.Keys{FP: "fp", CanonFP: "c"}, nil)
	if _, ok := getExact(c, "fp"); ok {
		t.Error("nil snapshot was cached")
	}
}

// TestPlanCacheCanonicalTier: a lookup that misses the exact tier hits
// through the canonical digest and hands back the representative's
// source permutation; the hit split records it as isomorphic.
func TestPlanCacheCanonicalTier(t *testing.T) {
	c := NewPlanCache(4, metrics.NewRegistry())
	snap := &core.Snapshot{}
	perm := []int{2, 0, 1}
	c.Put(query.Keys{FP: "fpA", CanonFP: "shape", Perm: perm}, snap)

	got, ok := c.Lookup(query.Keys{FP: "fpB", CanonFP: "shape"}, nil)
	if !ok || got.Tier != query.TierCanon || got.Snap != snap || got.Src.FP != "fpA" {
		t.Fatalf("canonical lookup = (%+v, ok=%v), want iso hit on fpA", got, ok)
	}
	if len(got.Src.Perm) != 3 || got.Src.Perm[0] != 2 {
		t.Errorf("source permutation not returned: %v", got.Src.Perm)
	}
	if h, ok := c.Lookup(query.Keys{FP: "fpA", CanonFP: "shape"}, nil); !ok || h.Tier != query.TierExact {
		t.Error("exact lookup did not hit the exact tier")
	}
	st := c.Stats()
	if st.ExactHits != 1 || st.IsoHits != 1 || st.CanonEntries != 1 {
		t.Errorf("stats = %+v, want 1 exact, 1 iso, 1 canon entry", st)
	}
}

// TestPlanCacheEvictionAccounting pins the two-tier bookkeeping: a
// snapshot reachable from both tiers is counted once in Plans, a newer
// isomorph takes over the class representative so evicting an older
// member leaves the canonical tier intact, and evicting the
// representative itself removes the canonical entry (no dangling
// pointer).
func TestPlanCacheEvictionAccounting(t *testing.T) {
	c := NewPlanCache(2, metrics.NewRegistry())
	// Two isomorphic entries (same canonical digest, different exact
	// fingerprints): the later Put represents the class.
	c.Put(query.Keys{FP: "fpA", CanonFP: "shape", Perm: []int{0}}, &core.Snapshot{})
	c.Put(query.Keys{FP: "fpB", CanonFP: "shape", Perm: []int{0}}, &core.Snapshot{})
	if st := c.Stats(); st.Entries != 2 || st.CanonEntries != 1 || st.Plans != 0 {
		t.Fatalf("stats = %+v, want 2 entries, 1 canonical class", st)
	}
	// Evict fpA (LRU). fpB still represents "shape": the canonical
	// tier must keep serving it.
	c.Put(query.Keys{FP: "fpC", CanonFP: "other", Perm: []int{0}}, &core.Snapshot{})
	if _, ok := getExact(c, "fpA"); ok {
		t.Fatal("fpA survived beyond capacity")
	}
	if _, ok := c.Lookup(query.Keys{FP: "fpX", CanonFP: "shape"}, nil); !ok {
		t.Error("canonical entry lost although its representative fpB is still cached")
	}
	// Now evict fpC's class representative: its canonical entry must
	// go with it (fpB was just touched by the Lookup above, so fpC is
	// LRU).
	c.Put(query.Keys{FP: "fpD", CanonFP: "fourth", Perm: []int{0}}, &core.Snapshot{})
	if _, ok := getExact(c, "fpC"); ok {
		t.Fatal("fpC survived though it was LRU")
	}
	if _, ok := c.Lookup(query.Keys{FP: "fpY", CanonFP: "other"}, nil); ok {
		t.Error("dangling canonical entry after its representative was evicted")
	}
	if st := c.Stats(); st.Entries != 2 || st.CanonEntries != 2 {
		t.Errorf("stats = %+v, want 2 entries / 2 canonical classes (shape→fpB, fourth→fpD)", st)
	}

	// An entry evicted before anything used it leaves the same way, the
	// structural tier included: its tier pointers dropped, one eviction
	// counted.
	c = NewPlanCache(1, metrics.NewRegistry())
	c.Put(query.Keys{FP: "fpE", CanonFP: "shapeE", StructFP: "structE"}, &core.Snapshot{})
	c.Put(query.Keys{FP: "fpF", CanonFP: "shapeF", StructFP: "structF"}, &core.Snapshot{})
	want := CacheStats{Entries: 1, CanonEntries: 1, StructEntries: 1, Puts: 2, Evictions: 1}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if _, ok := c.Lookup(query.Keys{FP: "fpE", CanonFP: "shapeE"}, nil); ok {
		t.Error("evicted entry still reachable through the exact or canonical tier")
	}
	if _, ok := c.Lookup(query.Keys{StructFP: "structE"}, nil); ok {
		t.Error("evicted entry still reachable through the structural tier")
	}
}

// TestPlanCacheRefreshKeepsPlanTotal: refreshing an entry replaces the
// plan count delta, and re-putting under the same exact fingerprint
// does not duplicate canonical entries.
func TestPlanCacheRefreshKeepsPlanTotal(t *testing.T) {
	c := NewPlanCache(2, metrics.NewRegistry())
	c.Put(query.Keys{FP: "fp", CanonFP: "shape"}, &core.Snapshot{})
	c.Put(query.Keys{FP: "fp", CanonFP: "shape"}, &core.Snapshot{})
	st := c.Stats()
	if st.Entries != 1 || st.CanonEntries != 1 || st.Plans != 0 {
		t.Errorf("refresh corrupted accounting: %+v", st)
	}
}

// TestPlanCachePutEvictCounters pins the monotonic put/evict pair: the
// Entries gauge alone cannot distinguish a stable cache from one
// churning at capacity.
func TestPlanCachePutEvictCounters(t *testing.T) {
	c := NewPlanCache(2, metrics.NewRegistry())
	for i := 0; i < 4; i++ {
		c.Put(query.Keys{FP: fmt.Sprintf("fp%d", i), CanonFP: fmt.Sprintf("c%d", i)}, &core.Snapshot{})
	}
	c.Put(query.Keys{FP: "fp3", CanonFP: "c3"}, &core.Snapshot{}) // refresh: a put, not an eviction
	st := c.Stats()
	if st.Puts != 5 {
		t.Errorf("puts = %d, want 5", st.Puts)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestCacheHitCountedWhenKnown: a hit the store answers is counted once
// its fetch has said what the hit was. A fetch that finds the record gone
// from the store makes the lookup a miss, and no read of the counters —
// Stats or a scrape, taken while the fetch runs or after it returns —
// may see the exact-tier hit count go down: a scrape would read that as
// a counter reset.
func TestCacheHitCountedWhenKnown(t *testing.T) {
	snap, _ := encodedSnapshot(t, testConfig(3).Opt, "Q4")
	inj := faultfs.NewInjector(nil)
	svc := startLife(t, t.TempDir(), func(cfg *Config) { cfg.StoreOptions.FS = inj }).svc
	defer svc.Shutdown()
	svc.store.Put(query.Keys{FP: "fpA", CanonFP: "canonA", StructFP: "structA", Perm: []int{1, 0}}, snap, true)
	if err := svc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	r, c := svc.obs.Registry, svc.cache
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	inj.SetScript(func(op faultfs.Op, path string, _ uint64) faultfs.Fault {
		if op != faultfs.OpOpen || !strings.HasSuffix(path, ".moqs") {
			return faultfs.Fault{}
		}
		once.Do(func() {
			close(entered)
			<-release
		})
		return faultfs.Fault{Err: errors.New("injected: input/output error")}
	})
	found := make(chan bool)
	go func() {
		_, ok := c.Lookup(query.Keys{FP: "fpA", CanonFP: "canonA"}, svc.cold)
		found <- ok
	}()

	var lastStats, lastScrape uint64
	read := func(when string) CacheStats {
		t.Helper()
		st := c.Stats()
		scraped := scrapeSample(t, r, `moqod_cache_hits_total{tier="exact"}`)
		if st.ExactHits < lastStats || scraped < lastScrape {
			t.Errorf("%s: exact hits %d, scraped %d, after reads of %d and %d", when, st.ExactHits, scraped, lastStats, lastScrape)
		}
		lastStats, lastScrape = st.ExactHits, scraped
		return st
	}
	<-entered
	for range 3 {
		read("during the fetch")
	}
	svc.store.Quarantine("fpA") // the record leaves the store while its read is parked
	close(release)
	if <-found {
		t.Fatal("a lookup whose record left the store reported a hit")
	}
	if st := read("after the fetch"); st.ExactHits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Errorf("after the fetch: %+v, want no hit, one miss, nothing admitted", st)
	}
}

// scrapeSample renders r and returns the value of the sample whose name
// and labels are key.
func scrapeSample(t *testing.T, r *metrics.Registry, key string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no sample %s in the exposition", key)
	return 0
}
