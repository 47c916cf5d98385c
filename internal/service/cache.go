package service

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
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
// re-cost. Safe for concurrent use.
//
// Eviction is LRU over the exact-tier entries; the canonical and
// structural tiers hold no snapshots of their own, only a pointer to
// the class's most recent exact entry, so one snapshot reachable from
// all tiers is counted once, and evicting the exact entry removes each
// pointer iff it still refers to it (no double-count, no dangling tier
// entry).
//
// Every entry holds a decoded snapshot. The snapshot store, when there
// is one, is the cold tier below all three (DESIGN.md D19): Lookup asks
// it on each tier's miss, and what it answers is admitted like a Put.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	// tiers maps each tier's key to its entry, indexed by query.Tier:
	// the exact fingerprint to the entry itself, a canonical or
	// structural digest to its class's representative.
	tiers [query.NumTiers]map[string]*list.Element

	plans int // running sum of PlanCount over the entries

	// The counters CacheStats reports, created on the registry by
	// NewPlanCache; they need no lock. hits is indexed by query.Tier.
	hits                              [query.NumTiers]*metrics.Counter
	misses, puts, evictions, poisoned *metrics.Counter
}

// errStoreRead marks a fetch that failed reading the store, as opposed
// to one that read a record and found it bad.
var errStoreRead = errors.New("service: snapshot store read failed")

// poisonous reports whether a fetch error is a verdict on the record.
func poisonous(err error) bool {
	return err != nil && !errors.Is(err, errStoreRead) && !errors.Is(err, store.ErrNotStored)
}

// cacheItem is one entry: a snapshot under its keys, the same keys the
// session that exported it and the store's record carry.
type cacheItem struct {
	query.Keys
	snap *core.Snapshot

	// origin is how the entry got here; a Put from a live export makes
	// it originLive.
	origin origin

	// used marks an entry this process hit (through any tier) or Put: the
	// working set Shutdown hands to the store's checkpoint so the next
	// boot fetches it before reporting ready.
	used bool
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
		tiers:    [query.NumTiers]map[string]*list.Element{{}, {}, {}},
		hits: [query.NumTiers]*metrics.Counter{
			query.TierExact:  r.Counter("moqod_cache_hits_total", hitsHelp, `tier="exact"`),
			query.TierCanon:  r.Counter("moqod_cache_hits_total", hitsHelp, `tier="iso"`),
			query.TierStruct: r.Counter("moqod_cache_stale_hits_total", "Structural-tier hits on pre-drift snapshots (resolved by the drift counters).", ""),
		},
		misses:    r.Counter("moqod_cache_misses_total", "Warm-start cache misses.", ""),
		puts:      r.Counter("moqod_cache_puts_total", "Snapshot admissions (inserts and refreshes).", ""),
		evictions: r.Counter("moqod_cache_evictions_total", "LRU evictions.", ""),
		poisoned:  r.Counter("moqod_cache_poisoned_total", "Entries quarantined from the cache after a restore or first-step failure.", ""),
	}
}

// Hit is what a lookup found.
type Hit struct {
	// Snap is the entry's snapshot. Nil means the cold tier answered but
	// its record could not be used this time — the disk failed the read,
	// or the record failed its checks and has been quarantined: the
	// caller starts cold.
	Snap *core.Snapshot
	// Tier is the tier that satisfied the lookup.
	Tier query.Tier
	// Src holds the keys of the entry that satisfied the hit: what a caller
	// quarantines if the restored snapshot turns out to be poison, and —
	// on a canonical-tier hit — the source permutation it composes with
	// its own to remap.
	Src query.Keys
	// Origin is where the entry's snapshot came from.
	Origin origin
}

// Lookup walks the tiers for k (DESIGN.md D21): the exact fingerprint,
// then the canonical digest — an isomorphic query's entry — then, both
// having missed, the structural digest — a pre-drift entry (Hit.Tier
// tells which). cold, when not nil, answers each tier's miss before the
// next tier is tried (Service.fromStore: a hit, or false for a miss).
// The first answer ends the walk and counts as its tier's hit, once it
// is known; a miss is counted when the exact and canonical tiers both
// missed. A hit in the cache marks the entry used and makes it the most
// recently used.
func (c *PlanCache) Lookup(k query.Keys, cold func(query.Tier, string) (Hit, bool)) (Hit, bool) {
	for t := query.TierExact; t < query.NumTiers; t++ {
		if t == query.TierStruct {
			c.misses.Inc()
		}
		key := k.Key(t)
		if key == "" {
			continue
		}
		h, ok := c.lookup(t, key)
		if !ok && cold != nil {
			h, ok = cold(t, key)
		}
		if ok {
			h.Tier = t
			c.hits[t].Inc()
			return h, true
		}
	}
	return Hit{}, false
}

// lookup returns the entry under key in tier t, marked used and moved to
// the front, without counting anything.
func (c *PlanCache) lookup(t query.Tier, key string) (Hit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.tiers[t][key]
	if el == nil {
		return Hit{}, false
	}
	c.ll.MoveToFront(el)
	item := el.Value.(*cacheItem)
	item.used = true
	return Hit{Snap: item.snap, Src: item.Keys, Origin: item.origin}, true
}

// removeLocked unlinks el from the LRU list and every tier. The
// canonical and structural pointers go only if they still name this
// entry: a newer isomorph may have taken over the class, and its exact
// entry must stay reachable through those tiers.
func (c *PlanCache) removeLocked(el *list.Element) {
	item := c.ll.Remove(el).(*cacheItem)
	for t := query.TierExact; t < query.NumTiers; t++ {
		if key := item.Key(t); c.tiers[t][key] == el {
			delete(c.tiers[t], key)
		}
	}
	c.plans -= item.snap.PlanCount()
}

// Quarantine evicts fp's entry from every tier, if it has one (a
// concurrent LRU eviction may have raced the quarantine, and a record
// the cold tier found bad never became an entry), and counts a poisoned
// source either way.
func (c *PlanCache) Quarantine(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.tiers[query.TierExact][fp]; ok {
		c.removeLocked(el)
	}
	c.poisoned.Inc()
}

// Put stores (or refreshes) the snapshot a live session exported under k
// and makes it the canonical digest's and structural digest's class
// representative, evicting the least recently used exact entry beyond
// capacity. k.Perm is handed back on isomorphic lookups. The entry is
// used. Nil snapshots are ignored.
func (c *PlanCache) Put(k query.Keys, snap *core.Snapshot) {
	if snap == nil {
		return
	}
	c.puts.Inc()
	c.admit(cacheItem{Keys: k, snap: snap, used: true})
}

// admit inserts or refreshes in as Put does, without counting a put: the
// one way into the cache, for live exports (Put) and for records read
// from the store, which are not puts — Puts is the write-through load.
func (c *PlanCache) admit(in cacheItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans += in.snap.PlanCount()
	el, refresh := c.tiers[query.TierExact][in.FP]
	if refresh {
		item := el.Value.(*cacheItem)
		c.plans -= item.snap.PlanCount()
		for t := query.TierExact; t < query.NumTiers; t++ {
			if key := item.Key(t); c.tiers[t][key] == el && key != in.Key(t) {
				delete(c.tiers[t], key)
			}
		}
		*item = in
		c.ll.MoveToFront(el)
	} else {
		item := in // only an insert needs the item on the heap
		el = c.ll.PushFront(&item)
	}
	// The latest admission represents its classes.
	for t := query.TierExact; t < query.NumTiers; t++ {
		if key := in.Key(t); key != "" {
			c.tiers[t][key] = el
		}
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
			dst = append(dst, item.FP)
		}
	}
	return dst
}

// CacheStats summarizes cache effectiveness.
type CacheStats struct {
	// Entries is the number of cached snapshots (exact-tier entries;
	// the canonical tier only points into them).
	Entries int
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
	// Puts counts snapshot admissions from live sessions (inserts and
	// refreshes) since creation; Evictions counts LRU removals. Unlike
	// the Entries gauge, the pair is monotonic, so deltas over time
	// distinguish a stable cache from one churning at capacity. With a
	// store, Puts is also its write load: every put is written through,
	// and a snapshot read from the store is admitted without one.
	Puts, Evictions uint64
	// Poisoned counts warm-start sources quarantined because their
	// record, restore or first post-restore step failed (DESIGN.md D14).
	Poisoned uint64
	// Plans is the total number of plan entries across the cached
	// snapshots.
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
		CanonEntries:  len(c.tiers[query.TierCanon]),
		StructEntries: len(c.tiers[query.TierStruct]),
		Plans:         c.plans,
	}
	c.mu.Unlock()
	st.ExactHits, st.IsoHits = c.hits[query.TierExact].Value(), c.hits[query.TierCanon].Value()
	st.Hits = st.ExactHits + st.IsoHits
	st.Misses, st.StaleHits = c.misses.Value(), c.hits[query.TierStruct].Value()
	st.Puts, st.Evictions, st.Poisoned = c.puts.Value(), c.evictions.Value(), c.poisoned.Value()
	return st
}
