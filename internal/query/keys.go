package query

import "slices"

// Tier names one of the warm-start cache's lookup tiers, in the order a
// lookup walks them (DESIGN.md D21).
type Tier uint8

const (
	TierExact  Tier = iota // the exact fingerprint
	TierCanon              // the canonical digest (isomorphism class)
	TierStruct             // the structural fingerprint (drift class)
	NumTiers   = 3         // the length of an array indexed by Tier
)

// Keys is a query's cache identity, the one value that names a snapshot
// in the plan cache, the store's index and its records: the exact
// fingerprint FP (Fingerprint; the store's dedup key), the canonical
// digest CanonFP with the table-ID → canonical-position map Perm that
// came with it (CanonicalFingerprint), and the statistics-free
// structural digest StructFP (StructuralFingerprint). A key is "" where
// it was not computed: a cache-less service derives FP alone. Perm is
// shared by every holder of the keys; nobody writes to it.
type Keys struct {
	FP, CanonFP, StructFP string
	Perm                  []int
}

// Keys returns all three of q's keys, each computed at its first call
// as its accessor does.
func (q *Query) Keys() Keys {
	canon, perm := q.CanonicalFingerprint()
	return Keys{FP: q.Fingerprint(), CanonFP: canon, StructFP: q.StructuralFingerprint(), Perm: perm}
}

// Key returns k's key in tier t.
func (k *Keys) Key(t Tier) string {
	switch t {
	case TierExact:
		return k.FP
	case TierCanon:
		return k.CanonFP
	}
	return k.StructFP
}

// Equal reports whether k and o carry the same keys and the same
// permutation (nil and empty being the same).
func (k *Keys) Equal(o *Keys) bool {
	return k.FP == o.FP && k.CanonFP == o.CanonFP && k.StructFP == o.StructFP && slices.Equal(k.Perm, o.Perm)
}
