package service

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// PlanCache is the warm-start cache: an LRU map from query fingerprints
// to optimizer snapshots, with a second lookup tier keyed by canonical
// digest (query.CanonicalFingerprint) and a third keyed by structural
// fingerprint (query.StructuralFingerprint). A session created for an
// already-seen query shape restores the cached scan and join plan sets
// instead of regenerating them; a session whose exact shape is new but
// whose join graph is isomorphic to a cached one (same graph under a
// permutation of table IDs) still hits through the canonical tier —
// the caller rewrites the snapshot onto its labeling with
// core.Snapshot.Remap. The structural tier exists for statistics
// drift: exact and canonical fingerprints embed statistic values, so a
// stats change misses both, while the stats-free structural digest
// still reaches the pre-drift snapshot for the caller to classify and
// re-cost (LookupStale). Safe for concurrent use.
//
// Eviction is LRU over the exact-tier entries; the canonical and
// structural tiers hold no snapshots of their own, only a pointer to
// the class's most recent exact entry, so one snapshot reachable from
// all tiers is counted once, and evicting the exact entry removes each
// pointer iff it still refers to it (no double-count, no dangling tier
// entry).
//
// The snapshot store is the cache's cold tier (DESIGN.md D19): a record
// it holds is admitted as a stub — the keys, no snapshot (Admit) — and
// fetched from the store on its first use, or before the node reports
// ready for the entries the store checkpoint's hot set names
// (FetchNow). Everything else about a stub — LRU position, tier
// pointers, eviction — is an ordinary entry's.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // exact fingerprint → element
	canon    map[string]*list.Element // canonical digest → class representative
	structm  map[string]*list.Element // structural digest → class representative

	plans   int // running sum of PlanCount over resident snapshots
	encoded int // stubs: entries whose snapshot is still encoded, in the store

	// The counters CacheStats reports, created on the registry by
	// NewPlanCache; they need no lock.
	exactHits, isoHits, staleHits, misses *metrics.Counter
	puts, evictions, poisoned             *metrics.Counter

	// fetch produces a stub's snapshot from the cold tier — the store's
	// Load, then snapcodec.Decode; atBoot tells a fetch made before the
	// node reports ready (FetchNow) from one a session's first hit pays
	// for. Its error says whose fault a failure is: store.ErrNotStored —
	// nobody's, the record is no longer live; errStoreRead — the disk's,
	// and nothing is known about the record; anything else — the
	// record's: a failed checksum, parse or decode. The service installs
	// an instrumented one before the cache sees concurrent use; tests
	// substitute their own. A cache on its own has no cold tier.
	fetch func(fp string, atBoot bool) (*core.Snapshot, error)
}

// errStoreRead marks a fetch that failed reading the store, as opposed
// to one that read a record and found it bad.
var errStoreRead = errors.New("service: snapshot store read failed")

// poisonous reports whether a fetch error is a verdict on the record.
func poisonous(err error) bool {
	return err != nil && !errors.Is(err, errStoreRead) && !errors.Is(err, store.ErrNotStored)
}

// cacheKey names one snapshot everywhere it lives: the cache's three
// tiers, the store's record, the session that exported it.
type cacheKey struct {
	fp       string // exact query fingerprint (exact tier, store record)
	canonFp  string // canonical digest (isomorphism tier)
	structFp string // statistics-free structural digest (drift tier)
	perm     []int  // the query's table-ID → canonical-position map
}

// cacheItem is the one entry type: it holds a snapshot or, for a record
// of the store nothing has used since boot, nothing but its keys
// (DESIGN.md D19). Exactly one of snap and stub is set.
type cacheItem struct {
	cacheKey
	snap *core.Snapshot
	stub *stub

	// origin labels how the entry got here when it did not come from a
	// live session export: "replay" (local store replay at startup) or
	// "bootstrap" (pulled from a peer's store). Sessions warm-starting
	// from the entry append it to their provenance; a Put from a live
	// export clears it.
	origin string

	// used marks an entry this process hit (through any tier) or Put: the
	// working set Shutdown hands to the store's checkpoint so the next
	// boot fetches it before reporting ready.
	used bool
}

func (it *cacheItem) planCount() int {
	if it.snap == nil {
		return 0
	}
	return it.snap.PlanCount()
}

// stub stands in for a snapshot that is in the store and not in memory.
// It holds no bytes, only the guard that makes the fetch happen once per
// entry: whichever hit or boot-time FetchNow gets there first runs it
// under mu, the rest wait there and find the outcome latched — a
// snapshot or a poison verdict. A fetch that failed reading the disk
// latches nothing; the next caller tries again.
type stub struct {
	mu     sync.Mutex
	snap   *core.Snapshot
	poison error
}

// NewPlanCache creates a cache holding at most capacity snapshots, its
// counters registered on r; capacity < 1 defaults to 256.
func NewPlanCache(capacity int, r *metrics.Registry) *PlanCache {
	if capacity < 1 {
		capacity = 256
	}
	const hitsHelp = "Warm-start cache hits by tier."
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		canon:    map[string]*list.Element{},
		structm:  map[string]*list.Element{},
		fetch: func(string, bool) (*core.Snapshot, error) {
			return nil, store.ErrNotStored
		},
		exactHits: r.Counter("moqod_cache_hits_total", hitsHelp, `tier="exact"`),
		isoHits:   r.Counter("moqod_cache_hits_total", hitsHelp, `tier="iso"`),
		staleHits: r.Counter("moqod_cache_stale_hits_total", "Structural-tier hits on pre-drift snapshots (resolved by the drift counters).", ""),
		misses:    r.Counter("moqod_cache_misses_total", "Warm-start cache misses.", ""),
		puts:      r.Counter("moqod_cache_puts_total", "Snapshot admissions (inserts and refreshes).", ""),
		evictions: r.Counter("moqod_cache_evictions_total", "LRU evictions.", ""),
		poisoned:  r.Counter("moqod_cache_poisoned_total", "Entries quarantined from the cache after a restore or first-step failure.", ""),
	}
}

// Hit is what a lookup found.
type Hit struct {
	// Snap is the entry's snapshot. Nil means the entry was a stub and its
	// fetch failed on this use: the caller starts cold, and — iff Poison —
	// quarantines Src first.
	Snap *core.Snapshot
	// Poison reports that the stub's record was read and found bad: a
	// failed frame check or a failed decode (DESIGN.md D14). Snap nil
	// without Poison means the store could not be read; the stub stays
	// for a later attempt.
	Poison bool
	// Exact reports that the exact-fingerprint tier satisfied the lookup.
	Exact bool
	// Src is the key of the entry that satisfied the hit: what a caller
	// quarantines if the restored snapshot turns out to be poison, and —
	// on a canonical-tier hit — the source permutation it composes with
	// its own to remap.
	Src cacheKey
	// Origin is the entry's origin label ("replay", "bootstrap"; "" for
	// an entry a live session exported).
	Origin string
}

// Lookup returns the entry cached for the exact fingerprint, or —
// failing that — the representative of the canonical digest's
// isomorphism class (Hit.Exact tells which). A hit or miss is recorded
// either way; a hit marks the entry used and, if the entry is a stub,
// fetches its snapshot before returning. A stub whose record the store
// no longer holds is dropped, and the lookup is a miss.
func (c *PlanCache) Lookup(fp, canonFp string) (Hit, bool) {
	c.mu.Lock()
	el, exact := c.items[fp]
	if !exact {
		el = c.canon[canonFp]
	}
	if el == nil {
		c.mu.Unlock()
		c.misses.Inc()
		return Hit{}, false
	}
	tier := c.isoHits
	if exact {
		tier = c.exactHits
	}
	h, ok := c.hit(el, tier, c.misses)
	h.Exact = exact && ok
	return h, ok
}

// LookupStale returns the structural tier's representative for the
// statistics-free structural digest: a cached entry whose source query
// had the same tables and join topology but (necessarily, since the
// exact and canonical tiers missed) different statistics. The caller
// classifies the drift against the snapshot's recorded statistics and
// re-costs or quarantines accordingly. Misses are not counted (the
// preceding Lookup already recorded one).
func (c *PlanCache) LookupStale(structFp string) (Hit, bool) {
	c.mu.Lock()
	el := c.structm[structFp]
	if el == nil {
		c.mu.Unlock()
		return Hit{}, false
	}
	return c.hit(el, c.staleHits, nil)
}

// hit completes a lookup that found el: the entry becomes the most
// recently used and is marked used, and if it is a stub its snapshot is
// fetched. Called with c.mu held; returns with it released — the fetch
// must not run under it. The outcome is counted once it is known: a
// fetch that finds the record gone from the store counts miss (if the
// tier keeps one) and reports false, anything else counts the tier's
// hit. A counter that went up and came back down would read as a
// counter reset to a scrape in between.
func (c *PlanCache) hit(el *list.Element, tier, miss *metrics.Counter) (Hit, bool) {
	c.ll.MoveToFront(el)
	item := el.Value.(*cacheItem)
	item.used = true
	h := Hit{Snap: item.snap, Src: item.cacheKey, Origin: item.origin}
	st := item.stub
	c.mu.Unlock()
	if st != nil {
		var err error
		if h.Snap, err = c.materialize(h.Src.fp, st, false); errors.Is(err, store.ErrNotStored) {
			if miss != nil {
				miss.Inc()
			}
			return Hit{}, false
		}
		h.Poison = poisonous(err)
	}
	tier.Inc()
	return h, true
}

// materialize fetches a stub's snapshot — once, however many callers
// race to it, and never under c.mu: a fetch is a disk read and a decode,
// as long as hundreds of lookups — and installs it in fp's entry if that
// entry still holds this stub (a concurrent Put may have refreshed it,
// the LRU may have evicted it; the snapshot is good either way). A
// store.ErrNotStored drops the entry instead, under the same condition.
// The error is the fetch's, or the poison verdict an earlier one
// latched.
func (c *PlanCache) materialize(fp string, st *stub, atBoot bool) (*core.Snapshot, error) {
	st.mu.Lock()
	var err error
	switch {
	case st.snap != nil:
	case st.poison != nil:
		err = st.poison
	default:
		if st.snap, err = c.fetch(fp, atBoot); poisonous(err) {
			st.poison = err
		}
	}
	snap := st.snap
	st.mu.Unlock()
	if snap == nil && !errors.Is(err, store.ErrNotStored) {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.items[fp]; ok {
		if item := el.Value.(*cacheItem); item.stub == st {
			if snap == nil {
				c.removeLocked(el)
			} else {
				item.snap, item.stub = snap, nil
				c.plans += item.planCount()
				c.encoded--
			}
		}
	}
	c.mu.Unlock()
	return snap, err
}

// FetchNow fetches fp's snapshot if its entry is a stub, leaving LRU
// order, hit counters and the used mark alone: the boot-time half of
// the checkpoint's hot set (a hit would fetch the entry anyway; this moves the
// cost in front of /readyz). It reports whether the record turned out
// to be poison, for the caller to quarantine; a record that could not
// be read stays a stub.
func (c *PlanCache) FetchNow(fp string) (poison bool) {
	c.mu.Lock()
	var st *stub
	if el, ok := c.items[fp]; ok {
		st = el.Value.(*cacheItem).stub
	}
	c.mu.Unlock()
	if st == nil {
		return false
	}
	_, err := c.materialize(fp, st, true)
	return poisonous(err)
}

// removeLocked unlinks el from the LRU list and every tier. The
// canonical and structural pointers go only if they still name this
// entry: a newer isomorph may have taken over the class, and its exact
// entry must stay reachable through those tiers.
func (c *PlanCache) removeLocked(el *list.Element) {
	item := c.ll.Remove(el).(*cacheItem)
	delete(c.items, item.fp)
	if c.canon[item.canonFp] == el {
		delete(c.canon, item.canonFp)
	}
	if c.structm[item.structFp] == el {
		delete(c.structm, item.structFp)
	}
	c.plans -= item.planCount()
	if item.stub != nil {
		c.encoded--
	}
}

// Quarantine evicts fp's entry from every tier: the entry is poison (its
// fetch, its restore or its first post-restore step failed). Unknown
// fingerprints are a no-op (a concurrent LRU eviction may have raced the
// quarantine).
func (c *PlanCache) Quarantine(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.removeLocked(el)
		c.poisoned.Inc()
	}
}

// Put stores (or refreshes) the snapshot a live session exported under k
// and makes it the canonical digest's and structural digest's class
// representative, evicting the least recently used exact entry beyond
// capacity. k.perm is handed back on isomorphic lookups. The entry is
// used. Nil snapshots are ignored.
func (c *PlanCache) Put(k cacheKey, snap *core.Snapshot) {
	if snap == nil {
		return
	}
	c.admit(cacheItem{cacheKey: k, snap: snap, used: true})
}

// Admit is Put for a record the snapshot store holds: the entry is a
// stub (its snapshot is fetched on its first use) labeled with origin.
// LRU order, class representatives and eviction accounting are Put's.
func (c *PlanCache) Admit(k cacheKey, origin string) {
	c.admit(cacheItem{cacheKey: k, stub: &stub{}, origin: origin})
}

func (c *PlanCache) admit(in cacheItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts.Inc()
	c.plans += in.planCount()
	if in.stub != nil {
		c.encoded++
	}
	el, refresh := c.items[in.fp]
	if refresh {
		item := el.Value.(*cacheItem)
		c.plans -= item.planCount()
		if item.stub != nil {
			c.encoded--
		}
		if c.structm[item.structFp] == el && item.structFp != in.structFp {
			delete(c.structm, item.structFp)
		}
		*item = in
		c.ll.MoveToFront(el)
	} else {
		item := in // only an insert needs the item on the heap
		el = c.ll.PushFront(&item)
		c.items[in.fp] = el
	}
	if in.canonFp != "" {
		c.canon[in.canonFp] = el // latest convergence represents the class
	}
	if in.structFp != "" {
		c.structm[in.structFp] = el
	}
	// Write-through (DESIGN.md D21): whatever is evicted here is in the
	// store already, if there is one.
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.evictions.Inc()
	}
}

// AppendUsed appends the fingerprints of the entries this process hit
// or Put, most recently used first — what Shutdown hands to the store's
// checkpoint as its hot set.
func (c *PlanCache) AppendUsed(dst []string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if item := el.Value.(*cacheItem); item.used {
			dst = append(dst, item.fp)
		}
	}
	return dst
}

// CacheStats summarizes cache effectiveness.
type CacheStats struct {
	// Entries is the number of cached snapshots (exact-tier entries;
	// the canonical tier only points into them), and Encoded how many of
	// them are stubs, records of the store nothing has used yet: their
	// snapshot is still in its wire form, on disk, and costs one read and
	// one decode on first use.
	Entries, Encoded int
	// CanonEntries is the number of isomorphism classes with a live
	// representative in the canonical tier.
	CanonEntries int
	// Hits and Misses count lookup outcomes since creation;
	// Hits = ExactHits + IsoHits.
	Hits, Misses uint64
	// ExactHits counts lookups satisfied by the exact fingerprint tier.
	ExactHits uint64
	// IsoHits counts lookups satisfied by the canonical tier: the query
	// was new, but an isomorphic shape's snapshot was rewritten for it.
	IsoHits uint64
	// StaleHits counts structural-tier lookups that found a pre-drift
	// snapshot for the caller to classify and re-cost. Not part of
	// Hits: a stale hit only pays off after classification, and the
	// drift counters on the service record how each one resolved.
	StaleHits uint64
	// StructEntries is the number of structural digests with a live
	// representative in the structural tier.
	StructEntries int
	// Puts counts snapshot admissions (inserts and refreshes) since
	// creation; Evictions counts LRU removals. Unlike the Entries
	// gauge, the pair is monotonic, so deltas over time distinguish a
	// stable cache from one churning at capacity. With a store, Puts
	// less the stubs admitted at boot is also its write load: every put
	// is written through.
	Puts, Evictions uint64
	// Poisoned counts entries quarantined because their restore or first
	// post-restore step failed (DESIGN.md D14).
	Poisoned uint64
	// Plans is the total number of plan entries across the resident
	// snapshots; a stub's plans are unknown until its first use.
	Plans int
}

// Stats returns the cache's sizes, a consistent snapshot taken under the
// lock, and its counters, read from the registry words /metrics renders.
// O(1): the plan total is maintained on Put/evict so monitoring polls
// never hold the mutex against the warm-start path for a full cache
// walk.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		Entries:       c.ll.Len(),
		Encoded:       c.encoded,
		CanonEntries:  len(c.canon),
		StructEntries: len(c.structm),
		Plans:         c.plans,
	}
	c.mu.Unlock()
	st.ExactHits, st.IsoHits = c.exactHits.Value(), c.isoHits.Value()
	st.Hits = st.ExactHits + st.IsoHits
	st.Misses, st.StaleHits = c.misses.Value(), c.staleHits.Value()
	st.Puts, st.Evictions, st.Poisoned = c.puts.Value(), c.evictions.Value(), c.poisoned.Value()
	return st
}

// sizes returns the entry count and how many of the entries are stubs,
// the two gauges /metrics samples.
func (c *PlanCache) sizes() (entries, encoded int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.encoded
}
