package workload

import "testing"

// TestIsoVariantsPairwiseDistinctAndIsomorphic: every variant shares
// the base's canonical digest (they are isomorphic, so cached plan
// state transfers) while no two share an exact fingerprint (zero
// exact-tier hits in a variant-per-session workload).
func TestIsoVariantsPairwiseDistinctAndIsomorphic(t *testing.T) {
	blk, ok := Find(MustTPCHBlocks(1), "Q3")
	if !ok {
		t.Fatal("missing block Q3")
	}
	variants, err := IsoVariants(blk, 3, 27)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 27 {
		t.Fatalf("got %d variants, want 27", len(variants))
	}
	canon, _ := variants[0].Query.CanonicalFingerprint()
	exact := map[string]string{}
	for _, v := range variants {
		d, _ := v.Query.CanonicalFingerprint()
		if d != canon {
			t.Errorf("variant %s is not canonically equal to the base", v.Name)
		}
		fp := v.Query.Fingerprint()
		if prev, dup := exact[fp]; dup {
			t.Errorf("variants %s and %s share an exact fingerprint", prev, v.Name)
		}
		exact[fp] = v.Name
	}
	// The base block itself (over the original catalog) is canonically
	// equal too: statistics survive the alias copy.
	if d, _ := blk.Query.CanonicalFingerprint(); d != canon {
		t.Error("alias relabeling changed the canonical digest")
	}
}

func TestIsoVariantsBounds(t *testing.T) {
	blk, _ := Find(MustTPCHBlocks(1), "Q3")
	if _, err := IsoVariants(blk, 3, 28); err == nil {
		t.Error("variant count beyond copies^tables accepted")
	}
	if _, err := IsoVariants(blk, 0, 1); err == nil {
		t.Error("zero copies accepted")
	}
	if _, err := IsoVariants(blk, 30, 1); err == nil {
		t.Error("alias catalog beyond the tableset ID space accepted")
	}
}
