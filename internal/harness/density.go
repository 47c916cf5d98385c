package harness

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/query"
)

// DensityPoint is one sample of the frontier-density sensitivity sweep.
type DensityPoint struct {
	// SamplingRates is the number of scan sampling variants per table.
	SamplingRates int
	// FinalFrontier is the final result frontier size.
	FinalFrontier int
	// IAMAAvg, MemorylessAvg and OneShot are per-invocation times.
	IAMAAvg, MemorylessAvg, OneShot time.Duration
}

// DensitySweep quantifies the mechanism behind the paper's Figure-4
// magnitudes (see DESIGN.md D7): as plan frontiers
// densify, the baselines' linear-scan pruning degrades while IAMA's
// indexed pruning does not, so the relative IAMA advantage grows. The
// sweep optimizes a fixed star query whose fact tables offer an
// increasing number of sampling rates, and reports per-invocation
// averages for the three algorithms.
func DensitySweep(tables int, rateCounts []int, levels int, alphaT, alphaS float64) ([]DensityPoint, error) {
	if tables < 2 {
		return nil, fmt.Errorf("harness: density sweep needs >= 2 tables")
	}
	var out []DensityPoint
	for _, rc := range rateCounts {
		if rc < 1 {
			return nil, fmt.Errorf("harness: rate count %d < 1", rc)
		}
		// Rates clustered within 2x so that gaps sit in the band the
		// precision schedule resolves progressively.
		rates := make([]float64, rc)
		for i := range rates {
			rates[i] = 0.5 + 0.5*float64(i+1)/float64(rc)
		}
		cats := make([]catalog.Table, tables)
		for i := range cats {
			cats[i] = catalog.Table{
				Name:          fmt.Sprintf("t%02d", i),
				Rows:          1e4 * float64(i+1),
				RowWidth:      100,
				HasIndex:      true,
				SamplingRates: rates,
			}
		}
		cat, err := catalog.New(cats)
		if err != nil {
			return nil, err
		}
		ids := make([]int, tables)
		edges := make([]query.JoinEdge, 0, tables-1)
		for i := range ids {
			ids[i] = i
			if i > 0 {
				edges = append(edges, query.JoinEdge{A: 0, B: i, Selectivity: 1e-4})
			}
		}
		q, err := query.New(cat, ids, edges, query.WithName(fmt.Sprintf("density-%d", rc)))
		if err != nil {
			return nil, err
		}
		model := costmodel.Default()
		ia, ml, os, err := InvocationTimes(q, model, levels, alphaT, alphaS)
		if err != nil {
			return nil, err
		}
		// Re-run IAMA to obtain the final frontier size.
		frontier, err := finalFrontierSize(q, model, levels, alphaT, alphaS)
		if err != nil {
			return nil, err
		}
		out = append(out, DensityPoint{
			SamplingRates: rc,
			FinalFrontier: frontier,
			IAMAAvg:       aggregate(ia, false),
			MemorylessAvg: aggregate(ml, false),
			OneShot:       os[0],
		})
	}
	return out, nil
}

func finalFrontierSize(q *query.Query, model *costmodel.Model, levels int, alphaT, alphaS float64) (int, error) {
	opt, err := newOptimizer(q, model, levels, alphaT, alphaS)
	if err != nil {
		return 0, err
	}
	for r := 0; r < levels; r++ {
		opt.Optimize(nil, r)
	}
	return len(opt.Results(nil, levels-1)), nil
}
