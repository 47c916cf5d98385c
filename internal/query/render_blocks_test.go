package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

// TestRenderingMatchesFmtOnTPCHBlocks is TestRenderingMatchesFmt on
// the TPC-H blocks the service and the benchmark serve, at three scale
// factors.
func TestRenderingMatchesFmtOnTPCHBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sf := range []float64{0.1, 1, 10} {
		blocks := workload.MustTPCHBlocks(sf)
		if len(blocks) == 0 {
			t.Fatal("no TPC-H blocks")
		}
		for _, b := range blocks {
			if msg := query.RenderingMismatch(b.Query, rng); msg != "" {
				t.Fatalf("sf %g %s: %s", sf, b.Name, msg)
			}
		}
	}
}
