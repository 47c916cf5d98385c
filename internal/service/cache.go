package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/snapcodec"
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
// The service shards the cache by canonical digest — one PlanCache per
// shard, each owning a slice of the total capacity — so isomorphic
// queries always land on the same shard (their exact fingerprints
// differ, their digest does not) and concurrent warm starts on
// unrelated shapes do not serialize on one mutex. Structural digests
// do not determine the shard (the same structure under different
// statistics hashes to different canonical shards), so the service
// probes every shard's structural tier on a drift lookup — an
// accepted cost on a path that only runs after both real tiers miss.
//
// Eviction is LRU within a shard over the exact-tier entries; the
// canonical and structural tiers hold no snapshots of their own, only
// a pointer to the class's most recent exact entry, so one snapshot
// reachable from all tiers is counted once, and evicting the exact
// entry removes each pointer iff it still refers to it (no
// double-count, no dangling tier entry).
//
// Records replayed from the snapshot store are admitted still encoded
// (Admit) and decoded on their first use — or before the node reports
// ready, for the entries the previous life's shutdown hint names
// (DecodeNow). Everything else about an encoded entry — LRU position,
// tier pointers, eviction — is an ordinary entry's (DESIGN.md D19).
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // exact fingerprint → element
	canon    map[string]*list.Element // canonical digest → class representative
	structm  map[string]*list.Element // structural digest → class representative

	exactHits uint64
	isoHits   uint64
	staleHits uint64
	misses    uint64
	puts      uint64
	evictions uint64
	poisoned  uint64
	plans     int // running sum of PlanCount over decoded entries
	encoded   int // entries whose snapshot is still encoded

	// onEvict, when set, receives every LRU-evicted entry after the
	// cache mutex is released — the persist-on-evict hook of the
	// snapshot store. Set it before the cache sees concurrent use.
	onEvict func(fp, canonFp, structFp string, perm []int, snap *core.Snapshot)

	// decode turns an encoded entry's source into its snapshot; atBoot
	// tells a decode made before the node reports ready (DecodeNow) from
	// one a session's first hit pays for. The service installs an
	// instrumented snapcodec.Decode before the cache sees concurrent use;
	// tests substitute stubs.
	decode func(blob []byte, atBoot bool) (*core.Snapshot, error)
}

// cacheItem is the one entry type: it holds a snapshot or, for a record
// replayed from the store and not used since, the snapshot's encoded
// source (DESIGN.md D19). Exactly one of snap and enc is set.
type cacheItem struct {
	fp       string
	canonFp  string
	structFp string
	perm     []int // the source query's table-ID → canonical-position map
	snap     *core.Snapshot
	enc      *encodedSnap

	// clean marks an entry whose snapshot is already on disk (replayed
	// from the snapshot store at startup and not refreshed since). The
	// eviction hook and the shutdown sweep skip clean entries — re-
	// persisting them would just supersede their own records, turning
	// every restart cycle into store churn; any Put dirties the entry
	// again. An encoded entry is always clean.
	clean bool

	// origin labels how the entry got here when it did not come from a
	// live session export: "replay" (local store replay at startup) or
	// "bootstrap" (pulled from a peer's store). Sessions warm-starting
	// from the entry append it to their provenance; a Put from a live
	// export clears it.
	origin string

	// used marks an entry this process hit (through any tier) or Put: the
	// working set Shutdown hands to the store's hint so the next boot
	// decodes it before reporting ready.
	used bool
}

func (it *cacheItem) planCount() int {
	if it.snap == nil {
		return 0
	}
	return it.snap.PlanCount()
}

// encodedSnap is an entry's snapshot as the store replayed it: the
// CRC-verified snapcodec bytes, decoded at most once — by whichever hit
// or boot-time DecodeNow gets there first, with the rest waiting on the
// same Once.
type encodedSnap struct {
	once sync.Once
	blob []byte // released once decoded
	snap *core.Snapshot
	err  error
}

// NewPlanCache creates a cache holding at most capacity snapshots;
// capacity < 1 defaults to 256.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 256
	}
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		canon:    map[string]*list.Element{},
		structm:  map[string]*list.Element{},
		decode: func(blob []byte, _ bool) (*core.Snapshot, error) {
			return snapcodec.Decode(blob)
		},
	}
}

// Hit is what a lookup found.
type Hit struct {
	// Snap is the entry's snapshot. Nil means the entry was still encoded
	// and its source failed to decode on this, its first use: the entry
	// is poison and the caller quarantines SrcFP (DESIGN.md D14).
	Snap *core.Snapshot
	// Exact reports that the exact-fingerprint tier satisfied the lookup.
	Exact bool
	// SrcFP and SrcCanon are the exact fingerprint and canonical digest
	// of the entry that satisfied the hit — the keys a caller passes to
	// Quarantine if the restored snapshot turns out to be poison.
	SrcFP, SrcCanon string
	// Perm is the entry's source permutation; on a canonical-tier hit the
	// caller composes it with its own and remaps.
	Perm []int
	// Origin is the entry's origin label ("replay", "bootstrap"; "" for
	// an entry a live session exported).
	Origin string
}

// Lookup returns the entry cached for the exact fingerprint, or —
// failing that — the representative of the canonical digest's
// isomorphism class (Hit.Exact tells which). A hit or miss is recorded
// either way; a hit marks the entry used and, if the entry is still
// encoded, decodes it before returning.
func (c *PlanCache) Lookup(fp, canonFp string) (Hit, bool) {
	c.mu.Lock()
	el, exact := c.items[fp]
	if !exact {
		el = c.canon[canonFp]
	}
	switch {
	case el == nil:
		c.misses++
		c.mu.Unlock()
		return Hit{}, false
	case exact:
		c.exactHits++
	default:
		c.isoHits++
	}
	h := c.hit(el)
	h.Exact = exact
	return h, true
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
	c.staleHits++
	return c.hit(el), true
}

// hit completes a lookup that found el: the entry becomes the most
// recently used and is marked used, and if it has no snapshot yet its
// source is decoded. Called with c.mu held; returns with it released —
// the decode must not run under it.
func (c *PlanCache) hit(el *list.Element) Hit {
	c.ll.MoveToFront(el)
	item := el.Value.(*cacheItem)
	item.used = true
	h := Hit{Snap: item.snap, SrcFP: item.fp, SrcCanon: item.canonFp, Perm: item.perm, Origin: item.origin}
	enc := item.enc
	c.mu.Unlock()
	if enc != nil {
		h.Snap = c.materialize(h.SrcFP, enc, false)
	}
	return h
}

// materialize decodes an encoded entry's source — once, however many
// callers race to it, and never under c.mu: a decode takes as long as
// hundreds of lookups — and installs the snapshot in fp's entry if that
// entry still holds this source (a concurrent Put may have refreshed
// it, the LRU may have evicted it; the decoded snapshot is good
// either way). It returns nil when the source does not decode.
func (c *PlanCache) materialize(fp string, enc *encodedSnap, atBoot bool) *core.Snapshot {
	enc.once.Do(func() {
		enc.snap, enc.err = c.decode(enc.blob, atBoot)
		enc.blob = nil
	})
	if enc.err != nil {
		return nil
	}
	c.mu.Lock()
	if el, ok := c.items[fp]; ok {
		if item := el.Value.(*cacheItem); item.enc == enc {
			item.snap, item.enc = enc.snap, nil
			c.plans += item.planCount()
			c.encoded--
		}
	}
	c.mu.Unlock()
	return enc.snap
}

// DecodeNow decodes fp's entry if it is still encoded, leaving LRU
// order, hit counters and the used mark alone: the boot-time half of
// the shutdown hint (a hit would decode the entry anyway; this moves
// the cost in front of /readyz). It reports false only when the source
// failed to decode — the entry is poison and the caller quarantines it.
func (c *PlanCache) DecodeNow(fp string) bool {
	c.mu.Lock()
	var enc *encodedSnap
	if el, ok := c.items[fp]; ok {
		enc = el.Value.(*cacheItem).enc
	}
	c.mu.Unlock()
	return enc == nil || c.materialize(fp, enc, true) != nil
}

// removeLocked unlinks el from the LRU list and every tier. The
// canonical and structural pointers go only if they still name this
// entry: a newer isomorph may have taken over the class, and its exact
// entry must stay reachable through those tiers.
func (c *PlanCache) removeLocked(el *list.Element) *cacheItem {
	item := c.ll.Remove(el).(*cacheItem)
	delete(c.items, item.fp)
	if c.canon[item.canonFp] == el {
		delete(c.canon, item.canonFp)
	}
	if c.structm[item.structFp] == el {
		delete(c.structm, item.structFp)
	}
	c.plans -= item.planCount()
	if item.enc != nil {
		c.encoded--
	}
	return item
}

// Quarantine evicts fp's entry from every tier without invoking the
// persist-on-evict hook: the entry is poison (its decode, its restore or
// its first post-restore step failed), and persisting it would re-arm
// the very record quarantine exists to bury. Unknown fingerprints are a
// no-op (a concurrent LRU eviction may have raced the quarantine).
func (c *PlanCache) Quarantine(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.removeLocked(el)
		c.poisoned++
	}
}

// OnEvict registers fn to receive every entry the LRU evicts (invoked
// outside the cache mutex). The snapshot store uses it for the
// persist-on-evict policy. Must be set before the cache sees
// concurrent use (the service installs it during New, after replay).
func (c *PlanCache) OnEvict(fn func(fp, canonFp, structFp string, perm []int, snap *core.Snapshot)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Put stores (or refreshes) the snapshot a live session exported for the
// exact fingerprint and makes it the canonical digest's and structural
// digest's class representative, evicting the least recently used exact
// entry beyond capacity. perm is the source query's canonical
// permutation, handed back on isomorphic lookups. The entry is dirty
// (not on disk yet) and used. Nil snapshots are ignored.
func (c *PlanCache) Put(fp, canonFp, structFp string, perm []int, snap *core.Snapshot) {
	if snap == nil {
		return
	}
	c.admit(cacheItem{fp: fp, canonFp: canonFp, structFp: structFp, perm: perm, snap: snap, used: true})
}

// Admit is Put for a record replayed from the snapshot store: blob is
// the snapshot still encoded (decoded on the entry's first use), the
// entry is clean — it is on disk by definition, so eviction and the
// shutdown sweep must not write it straight back — and labeled with
// origin. LRU order, class representatives and eviction accounting are
// Put's.
func (c *PlanCache) Admit(fp, canonFp, structFp string, perm []int, blob []byte, origin string) {
	c.admit(cacheItem{fp: fp, canonFp: canonFp, structFp: structFp, perm: perm,
		enc: &encodedSnap{blob: blob}, clean: true, origin: origin})
}

func (c *PlanCache) admit(in cacheItem) {
	var evicted []*cacheItem
	c.mu.Lock()
	c.puts++
	c.plans += in.planCount()
	if in.enc != nil {
		c.encoded++
	}
	el, refresh := c.items[in.fp]
	if refresh {
		item := el.Value.(*cacheItem)
		c.plans -= item.planCount()
		if item.enc != nil {
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
	for c.ll.Len() > c.capacity {
		item := c.removeLocked(c.ll.Back())
		c.evictions++
		// Clean entries are already on disk; the hook exists to save
		// snapshots whose only copy is the one being evicted.
		if c.onEvict != nil && !item.clean {
			evicted = append(evicted, item)
		}
	}
	hook := c.onEvict
	c.mu.Unlock()
	for _, item := range evicted {
		hook(item.fp, item.canonFp, item.structFp, item.perm, item.snap)
	}
}

// EachDirty calls fn for every entry not marked clean, most recently
// used first, outside the cache mutex (the entries are copied under
// it) — the shutdown sweep's enumerator for the persist-on-evict store
// policy. Clean entries, and with them every still-encoded one, are
// already on disk.
func (c *PlanCache) EachDirty(fn func(fp, canonFp, structFp string, perm []int, snap *core.Snapshot)) {
	// Copy values, not item pointers: a concurrent Put may refresh a
	// live item's fields under the mutex while fn runs outside it.
	c.mu.Lock()
	items := make([]cacheItem, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if item := el.Value.(*cacheItem); !item.clean {
			items = append(items, *item)
		}
	}
	c.mu.Unlock()
	for i := range items {
		fn(items[i].fp, items[i].canonFp, items[i].structFp, items[i].perm, items[i].snap)
	}
}

// AppendUsed appends the fingerprints of the entries this process hit
// or Put, most recently used first — what Shutdown hands to the store's
// hint.
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
	// them are replayed records nothing has used yet: their snapshot is
	// still in its wire form and costs one decode on first use.
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
	// stable cache from one churning at capacity — and size the write
	// load of the persist-on-evict store policy.
	Puts, Evictions uint64
	// Poisoned counts entries quarantined because their restore or first
	// post-restore step failed (DESIGN.md D14).
	Poisoned uint64
	// Plans is the total number of plan entries across the decoded
	// snapshots; an encoded entry's plans are unknown until its first use.
	Plans int
}

// add accumulates another shard's counters into cs (Stats aggregation
// across cache shards).
func (cs *CacheStats) add(o CacheStats) {
	cs.Entries += o.Entries
	cs.Encoded += o.Encoded
	cs.CanonEntries += o.CanonEntries
	cs.Hits += o.Hits
	cs.Misses += o.Misses
	cs.ExactHits += o.ExactHits
	cs.IsoHits += o.IsoHits
	cs.StaleHits += o.StaleHits
	cs.StructEntries += o.StructEntries
	cs.Puts += o.Puts
	cs.Evictions += o.Evictions
	cs.Poisoned += o.Poisoned
	cs.Plans += o.Plans
}

// Stats returns a consistent snapshot of the cache counters. O(1): the
// plan total is maintained on Put/evict so monitoring polls never hold
// the mutex against the warm-start path for a full cache walk.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.ll.Len(),
		Encoded:       c.encoded,
		CanonEntries:  len(c.canon),
		StructEntries: len(c.structm),
		Hits:          c.exactHits + c.isoHits,
		Misses:        c.misses,
		ExactHits:     c.exactHits,
		IsoHits:       c.isoHits,
		StaleHits:     c.staleHits,
		Puts:          c.puts,
		Evictions:     c.evictions,
		Poisoned:      c.poisoned,
		Plans:         c.plans,
	}
}
