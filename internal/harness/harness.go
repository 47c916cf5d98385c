// Package harness runs the paper's experiments (Section 6) and renders
// their results as text tables: average and maximal optimizer invocation
// times for IAMA versus the memoryless and one-shot baselines over the
// TPC-H join blocks (Figures 3, 4, 5), the conceptual anytime-quality
// and incremental-run-time curves (Figure 2), and plan-set size growth
// (the space analysis of Section 5.2).
//
// As in the paper, all algorithms are compared in a scenario without
// user interaction: bounds stay at infinity and the resolution is
// refined step by step, so the differences measure the algorithmic
// strategies themselves.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/query"
	"repro/internal/workload"
)

// Options configure a figure run.
type Options struct {
	// ScaleFactor is the TPC-H scale factor (statistics only; default 1).
	ScaleFactor float64
	// TargetPrecision is α_T (required, > 1).
	TargetPrecision float64
	// PrecisionStep is α_S (≥ 0).
	PrecisionStep float64
	// ResolutionLevels lists the level counts to evaluate, e.g. 1, 5, 20.
	ResolutionLevels []int
	// Repetitions averages timings over this many runs (default 1).
	Repetitions int
	// MaxTables skips blocks with more tables (0 = no limit); used to
	// keep quick runs quick.
	MaxTables int
	// Model overrides the cost model (default: the paper's three-metric
	// evaluation space with default parameters).
	Model *costmodel.Model
}

func (o *Options) defaults() error {
	if o.ScaleFactor == 0 {
		o.ScaleFactor = 1
	}
	if o.TargetPrecision <= 1 {
		return fmt.Errorf("harness: TargetPrecision %g must exceed 1", o.TargetPrecision)
	}
	if o.PrecisionStep < 0 {
		return fmt.Errorf("harness: PrecisionStep %g must be non-negative", o.PrecisionStep)
	}
	if len(o.ResolutionLevels) == 0 {
		o.ResolutionLevels = []int{1, 5, 20}
	}
	if o.Repetitions <= 0 {
		o.Repetitions = 1
	}
	if o.Model == nil {
		o.Model = costmodel.Default()
	}
	return nil
}

// Cell is one measurement: per-invocation times of the three algorithms
// for one table count.
type Cell struct {
	Tables     int
	Queries    int
	IAMA       time.Duration
	Memoryless time.Duration
	OneShot    time.Duration
}

// Section is one figure panel: a resolution-level count with one cell
// per table count.
type Section struct {
	ResolutionLevels int
	Cells            []Cell
}

// Figure is a rendered experiment.
type Figure struct {
	Title    string
	Sections []Section
}

// newOptimizer builds an IAMA optimizer with the harness's standard
// configuration.
func newOptimizer(q *query.Query, model *costmodel.Model, levels int, alphaT, alphaS float64) (*core.Optimizer, error) {
	return core.NewOptimizer(q, core.Config{
		Model:            model,
		ResolutionLevels: levels,
		TargetPrecision:  alphaT,
		PrecisionStep:    alphaS,
	})
}

// InvocationTimes runs the three algorithms on one query with the given
// precision schedule and returns the per-invocation durations of each.
// IAMA and memoryless run one invocation per resolution level (ascending,
// unbounded); one-shot runs a single invocation at the target precision.
func InvocationTimes(q *query.Query, model *costmodel.Model, levels int, alphaT, alphaS float64) (iama, memoryless, oneShot []time.Duration, err error) {
	cfg := core.Config{
		Model:            model,
		ResolutionLevels: levels,
		TargetPrecision:  alphaT,
		PrecisionStep:    alphaS,
	}
	opt, err := core.NewOptimizer(q, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	for r := 0; r < levels; r++ {
		start := time.Now()
		opt.Optimize(nil, r)
		iama = append(iama, time.Since(start))
	}

	ml, err := baseline.NewMemoryless(q, model)
	if err != nil {
		return nil, nil, nil, err
	}
	for r := 0; r < levels; r++ {
		alpha := cfg.AlphaFor(r)
		start := time.Now()
		if _, err := ml.Invoke(alpha, nil); err != nil {
			return nil, nil, nil, err
		}
		memoryless = append(memoryless, time.Since(start))
	}

	start := time.Now()
	if _, err := baseline.OneShot(q, model, alphaT, nil); err != nil {
		return nil, nil, nil, err
	}
	oneShot = []time.Duration{time.Since(start)}
	return iama, memoryless, oneShot, nil
}

// AggregateNS reduces a per-invocation duration series to its average
// or maximum in nanoseconds, as the Figure benchmarks report it.
func AggregateNS(ds []time.Duration, useMax bool) float64 {
	return float64(aggregate(ds, useMax).Nanoseconds())
}

// aggregate selects the average or maximum of a duration series.
func aggregate(ds []time.Duration, useMax bool) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	if useMax {
		m := ds[0]
		for _, d := range ds[1:] {
			if d > m {
				m = d
			}
		}
		return m
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// timingFigure measures all blocks grouped by table count.
func timingFigure(title string, opts Options, useMax bool) (*Figure, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	blocks := workload.MustTPCHBlocks(opts.ScaleFactor)
	if opts.MaxTables > 0 {
		var kept []workload.Block
		for _, b := range blocks {
			if b.Query.NumTables() <= opts.MaxTables {
				kept = append(kept, b)
			}
		}
		blocks = kept
	}
	grouped := workload.ByTableCount(blocks)
	counts := workload.TableCounts(blocks)

	fig := &Figure{Title: title}
	for _, levels := range opts.ResolutionLevels {
		sec := Section{ResolutionLevels: levels}
		for _, n := range counts {
			var cell Cell
			cell.Tables = n
			cell.Queries = len(grouped[n])
			var iamaAcc, mlAcc, osAcc time.Duration
			for rep := 0; rep < opts.Repetitions; rep++ {
				for _, b := range grouped[n] {
					ia, ml, os, err := InvocationTimes(b.Query, opts.Model, levels,
						opts.TargetPrecision, opts.PrecisionStep)
					if err != nil {
						return nil, fmt.Errorf("block %s: %w", b.Name, err)
					}
					iamaAcc += aggregate(ia, useMax)
					mlAcc += aggregate(ml, useMax)
					osAcc += aggregate(os, useMax)
				}
			}
			div := time.Duration(opts.Repetitions * len(grouped[n]))
			if div > 0 {
				cell.IAMA = iamaAcc / div
				cell.Memoryless = mlAcc / div
				cell.OneShot = osAcc / div
			}
			sec.Cells = append(sec.Cells, cell)
		}
		fig.Sections = append(fig.Sections, sec)
	}
	return fig, nil
}

// Figure3 reproduces the paper's Figure 3: average time per optimizer
// invocation for TPC-H sub-queries at target precision α_T = 1.01,
// α_S = 0.05, with 1, 5 and 20 resolution levels.
func Figure3(opts Options) (*Figure, error) {
	if opts.TargetPrecision == 0 {
		opts.TargetPrecision = 1.01
		opts.PrecisionStep = 0.05
	}
	return timingFigure("Figure 3: average time per optimizer invocation (αT=1.01, αS=0.05)", opts, false)
}

// Figure4 reproduces Figure 4: as Figure 3 with α_T = 1.005, α_S = 0.5.
func Figure4(opts Options) (*Figure, error) {
	if opts.TargetPrecision == 0 {
		opts.TargetPrecision = 1.005
		opts.PrecisionStep = 0.5
	}
	return timingFigure("Figure 4: average time per optimizer invocation (αT=1.005, αS=0.5)", opts, false)
}

// Figure5 reproduces Figure 5: maximal time per optimizer invocation at
// α_T = 1.005, α_S = 0.5 with 20 resolution levels.
func Figure5(opts Options) (*Figure, error) {
	if opts.TargetPrecision == 0 {
		opts.TargetPrecision = 1.005
		opts.PrecisionStep = 0.5
	}
	if len(opts.ResolutionLevels) == 0 {
		opts.ResolutionLevels = []int{20}
	}
	return timingFigure("Figure 5: maximal time per optimizer invocation (αT=1.005, αS=0.5)", opts, true)
}

// Render formats the figure as a text table with one section per
// resolution-level count. Durations are printed in milliseconds with the
// IAMA-relative speedups of the baselines.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	for _, sec := range f.Sections {
		fmt.Fprintf(&b, "\nWith %d resolution level(s):\n", sec.ResolutionLevels)
		fmt.Fprintf(&b, "%-8s %-8s %14s %14s %14s %10s %10s\n",
			"tables", "queries", "IAMA", "memoryless", "one-shot", "ml/IAMA", "os/IAMA")
		for _, c := range sec.Cells {
			mlRatio, osRatio := ratio(c.Memoryless, c.IAMA), ratio(c.OneShot, c.IAMA)
			fmt.Fprintf(&b, "%-8d %-8d %14s %14s %14s %10.2f %10.2f\n",
				c.Tables, c.Queries, fmtDur(c.IAMA), fmtDur(c.Memoryless), fmtDur(c.OneShot),
				mlRatio, osRatio)
		}
	}
	return b.String()
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.3gµs", float64(d)/1e3)
	}
}

// QualityPoint is one sample of the anytime-quality curve (Figure 2a).
type QualityPoint struct {
	// Elapsed is cumulative optimization time.
	Elapsed time.Duration
	// ApproxFactor is the frontier's worst-case approximation factor
	// against the exhaustive ground truth (1 = exact).
	ApproxFactor float64
	// Plans is the frontier size.
	Plans int
}

// AnytimeQuality reproduces the conceptual Figure 2(a): result quality
// over time for the anytime algorithm (one point per invocation) versus
// the one-shot algorithm (a single point when it finishes). Ground truth
// is the exhaustive Pareto frontier, so the chosen block must be small
// enough to enumerate.
func AnytimeQuality(blockName string, opts Options) (anytime []QualityPoint, oneShot QualityPoint, err error) {
	if err := opts.defaults(); err != nil {
		return nil, QualityPoint{}, err
	}
	blocks := workload.MustTPCHBlocks(opts.ScaleFactor)
	blk, ok := workload.Find(blocks, blockName)
	if !ok {
		return nil, QualityPoint{}, fmt.Errorf("harness: unknown block %q", blockName)
	}
	truth := pareto.Vectors(baseline.Exhaustive(blk.Query, opts.Model, nil).Final(blk.Query))

	levels := opts.ResolutionLevels[0]
	cfg := core.Config{
		Model:            opts.Model,
		ResolutionLevels: levels,
		TargetPrecision:  opts.TargetPrecision,
		PrecisionStep:    opts.PrecisionStep,
	}
	opt, err := core.NewOptimizer(blk.Query, cfg)
	if err != nil {
		return nil, QualityPoint{}, err
	}
	var elapsed time.Duration
	for r := 0; r < levels; r++ {
		start := time.Now()
		opt.Optimize(nil, r)
		elapsed += time.Since(start)
		frontier := pareto.Vectors(opt.Results(nil, r))
		anytime = append(anytime, QualityPoint{
			Elapsed:      elapsed,
			ApproxFactor: pareto.ApproxFactor(frontier, truth),
			Plans:        len(frontier),
		})
	}

	start := time.Now()
	osRes, err := baseline.OneShot(blk.Query, opts.Model, opts.TargetPrecision, nil)
	if err != nil {
		return nil, QualityPoint{}, err
	}
	osDur := time.Since(start)
	osVecs := pareto.Vectors(osRes.Final(blk.Query))
	oneShot = QualityPoint{
		Elapsed:      osDur,
		ApproxFactor: pareto.ApproxFactor(osVecs, truth),
		Plans:        len(osVecs),
	}
	return anytime, oneShot, nil
}

// InvocationTrace reproduces the conceptual Figure 2(b): per-invocation
// run time by invocation number for the incremental algorithm versus the
// memoryless baseline, over an unbounded refinement series.
func InvocationTrace(blockName string, opts Options) (iama, memoryless []time.Duration, err error) {
	if err := opts.defaults(); err != nil {
		return nil, nil, err
	}
	blocks := workload.MustTPCHBlocks(opts.ScaleFactor)
	blk, ok := workload.Find(blocks, blockName)
	if !ok {
		return nil, nil, fmt.Errorf("harness: unknown block %q", blockName)
	}
	levels := opts.ResolutionLevels[0]
	iama, memoryless, _, err = InvocationTimes(blk.Query, opts.Model, levels,
		opts.TargetPrecision, opts.PrecisionStep)
	return iama, memoryless, err
}

// SizeSample records plan-set sizes after one invocation.
type SizeSample struct {
	Resolution int
	Results    int
	Candidates int
	Frontier   int
}

// PlanSetSizes measures result/candidate plan-set growth across a
// refinement series (the space behaviour of Section 5.2).
func PlanSetSizes(blockName string, opts Options) ([]SizeSample, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	blocks := workload.MustTPCHBlocks(opts.ScaleFactor)
	blk, ok := workload.Find(blocks, blockName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown block %q", blockName)
	}
	levels := opts.ResolutionLevels[0]
	cfg := core.Config{
		Model:            opts.Model,
		ResolutionLevels: levels,
		TargetPrecision:  opts.TargetPrecision,
		PrecisionStep:    opts.PrecisionStep,
	}
	opt, err := core.NewOptimizer(blk.Query, cfg)
	if err != nil {
		return nil, err
	}
	var out []SizeSample
	for r := 0; r < levels; r++ {
		opt.Optimize(nil, r)
		out = append(out, SizeSample{
			Resolution: r,
			Results:    opt.ResultCount(),
			Candidates: opt.CandidateCount(),
			Frontier:   len(opt.Results(nil, r)),
		})
	}
	return out, nil
}

// BoundsSweep exercises the incremental behaviour under user-style bound
// changes on one block: a refinement series, then a tightening, then a
// relaxation, reporting per-invocation durations with labels. It shows
// incrementality beyond the paper's fixed unbounded scenario
// (`experiments -figure bounds`).
func BoundsSweep(blockName string, opts Options) ([]string, []time.Duration, error) {
	if err := opts.defaults(); err != nil {
		return nil, nil, err
	}
	blocks := workload.MustTPCHBlocks(opts.ScaleFactor)
	blk, ok := workload.Find(blocks, blockName)
	if !ok {
		return nil, nil, fmt.Errorf("harness: unknown block %q", blockName)
	}
	levels := opts.ResolutionLevels[0]
	cfg := core.Config{
		Model:            opts.Model,
		ResolutionLevels: levels,
		TargetPrecision:  opts.TargetPrecision,
		PrecisionStep:    opts.PrecisionStep,
	}
	opt, err := core.NewOptimizer(blk.Query, cfg)
	if err != nil {
		return nil, nil, err
	}
	var labels []string
	var times []time.Duration
	run := func(label string, b cost.Vector, r int) {
		start := time.Now()
		opt.Optimize(b, r)
		times = append(times, time.Since(start))
		labels = append(labels, label)
	}
	for r := 0; r < levels; r++ {
		run(fmt.Sprintf("unbounded r=%d", r), nil, r)
	}
	frontier := opt.Results(nil, levels-1)
	if len(frontier) == 0 {
		return nil, nil, fmt.Errorf("harness: empty frontier for %s", blockName)
	}
	tight := frontier[0].Cost.Scale(1.2)
	for r := 0; r < levels; r++ {
		run(fmt.Sprintf("tightened r=%d", r), tight, r)
	}
	for r := 0; r < levels; r++ {
		run(fmt.Sprintf("relaxed r=%d", r), nil, r)
	}
	return labels, times, nil
}
