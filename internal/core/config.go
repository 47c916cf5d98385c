// Package core implements IAMA, the paper's Incremental Anytime
// Multi-objective query optimization Algorithm (Section 4): a dynamic-
// programming join optimizer that maintains result and candidate plan
// sets across invocations, supports per-invocation cost bounds b and
// resolution levels r, and guarantees that after Optimize(b, r) the
// result set for every k-table subset is an α_r^k-approximate b-bounded
// Pareto plan set (Theorems 1 and 2).
package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/plan"
)

// Config configures an Optimizer. Model and ResolutionLevels are
// required; the remaining fields have sensible defaults applied by
// NewOptimizer.
type Config struct {
	// Model supplies plan alternatives and their multi-objective costs.
	Model *costmodel.Model

	// ResolutionLevels is the number of resolution levels (the paper's
	// r_M + 1); resolutions range over {0, ..., ResolutionLevels-1}.
	ResolutionLevels int

	// TargetPrecision is α_T, the approximation factor used at the
	// maximal resolution. Must exceed 1. The paper's experiments use
	// 1.01 and 1.005.
	TargetPrecision float64

	// PrecisionStep is α_S in the paper's schedule
	// α_r = α_T + α_S·(r_M − r)/r_M. Must be non-negative. The paper's
	// experiments use 0.05 and 0.5. Ignored when ResolutionLevels is 1.
	PrecisionStep float64

	// PruneAgainstAll is an ablation switch (DESIGN.md D2): compare new
	// plans against result plans of every resolution instead of only
	// resolutions ≤ r. This can prune more but breaks the paper's
	// guarantee that invocation time is proportional to the current
	// resolution.
	PruneAgainstAll bool

	// DisableDeltaFilter is an ablation switch (DESIGN.md D3): always
	// consider all result-plan pairs in Fresh (relying on the IsFresh
	// memo alone) instead of restricting to pairs that involve a plan
	// inserted in the current invocation when the invocation series
	// allows it.
	DisableDeltaFilter bool

	// DisableOrderAwarePruning drops interesting-order handling: plans
	// are compared on cost alone. Mirrors the paper's simplified
	// pseudo-code (its Section 4.3 extension adds order awareness).
	DisableOrderAwarePruning bool

	// RetainDominatedCandidates is an ablation switch (DESIGN.md D5):
	// it restores the paper's literal pruning, which keeps every
	// approximated plan as a candidate even when an existing result
	// plan dominates it at factor 1 (making it globally redundant).
	// The default discards such plans, keeping the candidate pool
	// proportional to the α-band around the frontier.
	RetainDominatedCandidates bool

	// DisableVisibleFrontierFilter is an ablation switch (DESIGN.md
	// D6): it makes Fresh combine every visible result plan, including
	// plans that another visible result plan — older or newer — makes
	// redundant (covers its order, produces no more rows, dominates its
	// cost). The default filters each side of a sub-plan pairing to its
	// Pareto frontier first — sound because a join built from a
	// dominated, order-covered, no-smaller-rows sub-plan is itself
	// dominated by the join built from the dominator. The same filter
	// drops the alternatives of one pair that another alternative of the
	// pair makes redundant; the switch turns that off too.
	DisableVisibleFrontierFilter bool

	// Hooks receives debug callbacks; all fields may be nil. Used by
	// the test suite to verify the amortized-work lemmata.
	Hooks Hooks
}

// Hooks are optional instrumentation callbacks.
type Hooks struct {
	// PlanGenerated fires for every plan enumerated (scan enumeration
	// and join combination), before pruning. Join alternatives are
	// passed from the optimizer's enumeration scratch, which holds them
	// without sub-plans; the optimizer attaches p.Left and p.Right for
	// the callback alone, so the hook sees a complete plan. p and p.Cost
	// are valid only for the duration of the callback (p.Left and
	// p.Right are retained plans and stay valid); a callback that keeps
	// a plan must copy it, e.g. through Signature(), and must not write
	// it.
	PlanGenerated func(p *plan.Node)
	// PairCombined fires for every sub-plan pair passed to the join
	// enumeration.
	PairCombined func(left, right *plan.Node)
	// CandidateRetrieved fires for every candidate drained from the
	// candidate set in phase one of Optimize.
	CandidateRetrieved func(p *plan.Node)
}

// validate rejects inconsistent configurations.
func (c *Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("core: Config.Model is required")
	}
	if c.ResolutionLevels < 1 {
		return fmt.Errorf("core: ResolutionLevels %d < 1", c.ResolutionLevels)
	}
	if c.TargetPrecision <= 1 {
		return fmt.Errorf("core: TargetPrecision %g must exceed 1", c.TargetPrecision)
	}
	if c.PrecisionStep < 0 {
		return fmt.Errorf("core: PrecisionStep %g must be non-negative", c.PrecisionStep)
	}
	return nil
}

// MaxResolution returns r_M = ResolutionLevels − 1.
func (c Config) MaxResolution() int { return c.ResolutionLevels - 1 }

// AlphaFor returns the precision factor α_r for resolution level r using
// the paper's schedule α_r = α_T + α_S·(r_M − r)/r_M. With a single
// resolution level the schedule degenerates to α_T.
func (c Config) AlphaFor(r int) float64 {
	rM := c.MaxResolution()
	if r < 0 || r > rM {
		panic(fmt.Sprintf("core: resolution %d outside [0,%d]", r, rM))
	}
	if rM == 0 {
		return c.TargetPrecision
	}
	return c.TargetPrecision + c.PrecisionStep*float64(rM-r)/float64(rM)
}

// CrossRegimeAlpha returns Γ = ∏_{r=0}^{r_M} α_r, the worst-case
// per-pruning approximation factor across invocation series that change
// the cost bounds. Within a single bounds regime (fixed b, resolution
// ascending from 0) every result set is α_r^k-approximate (the paper's
// Theorems 1–2). After a bounds change resets the resolution, a plan
// pruned at a fine resolution may only be covered through a chain of
// approximations whose registration resolutions strictly descend, so the
// factors of at most r_M+1 distinct levels can compound; Γ^k bounds the
// result over arbitrary legal invocation series (each regime starting at
// resolution 0). The paper's Example 3 describes exactly this behaviour —
// candidates "considered equivalent at resolution 0 or 1" are not
// reconsidered after a bounds change — without folding it into the stated
// guarantee; we surface the compounded bound explicitly.
func (c Config) CrossRegimeAlpha() float64 {
	gamma := 1.0
	for r := 0; r <= c.MaxResolution(); r++ {
		gamma *= c.AlphaFor(r)
	}
	return gamma
}
