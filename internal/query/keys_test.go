package query

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// TestKeysMatchAccessors: Keys carries what the three accessors return,
// Key names each tier's, and Equal tells apart keys that differ in any
// one field, the permutation included.
func TestKeysMatchAccessors(t *testing.T) {
	q, err := Synthetic(catalog.TPCH(1), 4, Star, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	k := q.Keys()
	canon, perm := q.CanonicalFingerprint()
	want := Keys{FP: q.Fingerprint(), CanonFP: canon, StructFP: q.StructuralFingerprint(), Perm: perm}
	if !k.Equal(&want) || k.FP == "" || k.CanonFP == "" || k.StructFP == "" || len(k.Perm) == 0 {
		t.Fatalf("Keys() = %+v, want %+v", k, want)
	}
	for tier, key := range [NumTiers]string{want.FP, want.CanonFP, want.StructFP} {
		if got := k.Key(Tier(tier)); got != key {
			t.Errorf("Key(%d) = %q, want %q", tier, got, key)
		}
	}

	other := k
	other.Perm = append([]int(nil), k.Perm...)
	if !k.Equal(&other) {
		t.Error("a copy of the permutation made the keys unequal")
	}
	other.Perm[0], other.Perm[1] = other.Perm[1], other.Perm[0]
	if k.Equal(&other) || other.Equal(&k) {
		t.Error("keys that differ only in Perm compare equal")
	}
	for _, edit := range []func(*Keys){
		func(k *Keys) { k.FP += "x" },
		func(k *Keys) { k.CanonFP += "x" },
		func(k *Keys) { k.StructFP += "x" },
		func(k *Keys) { k.Perm = nil },
	} {
		other := k
		edit(&other)
		if k.Equal(&other) {
			t.Errorf("keys %+v and %+v compare equal", k, other)
		}
	}
	if a, b := (Keys{FP: "f"}), (Keys{FP: "f", Perm: []int{}}); !a.Equal(&b) {
		t.Error("a nil and an empty permutation compare unequal")
	}
}
