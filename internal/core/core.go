package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// Optimizer is the incremental anytime multi-objective optimizer for one
// fixed query. It maintains result and candidate plan sets across calls
// to Optimize (the paper's Algorithm 2); each call refines the result
// sets for the requested bounds and resolution without regenerating plans
// from earlier calls. An Optimizer is not safe for concurrent use.
type Optimizer struct {
	cfg Config
	q   *query.Query

	// res and cand are the result and candidate plan sets, one range
	// index per table subset (the paper's Res^q and Cand^q).
	res  map[tableset.Set]*rangeindex.Index
	cand map[tableset.Set]*rangeindex.Index

	// subsetsBySize[k] lists the connected table subsets of cardinality
	// k+1; the DP in phase two walks them in ascending size.
	subsetsBySize [][]tableset.Set

	// epoch is the current invocation number; result entries record the
	// epoch at which they were inserted, which implements the Δ
	// operator of function Fresh.
	epoch uint64

	// arena allocates every plan node (and its cost vector) this
	// optimizer retains — scan plans, and join plans at the moment prune
	// inserts them into a plan set — assigning dense uint32 IDs
	// (DESIGN.md D8). Plans prune discards never reach it.
	arena *plan.Arena
	// shared is the numbering watermark of the snapshot the optimizer
	// was restored from (0 for a cold one): every node below it is the
	// snapshot's, detached and immutable, and Snapshot shares it rather
	// than copy it (DESIGN.md D8).
	shared uint32
	// frontiers[r] is the skyline of the root result plans at levels
	// 0..r that the snapshot this optimizer was restored from held
	// (RestoredFrontier, DESIGN.md D20), and renders the render table
	// of their plans: both shared read-only with the snapshot, nil for
	// a cold optimizer. restoredEpoch is that snapshot's epoch: every
	// root result with a later epoch is this optimizer's own.
	frontiers     [][]*plan.Node
	renders       *RenderTable
	restoredEpoch uint64
	// echo is the configuration echo (cfgFingerprint), rendered at the
	// first export or taken from the snapshot a restore validated.
	echo string

	// pairBase and pairLog together implement predicate IsFresh: a
	// sub-plan pair, packed as leftID<<32|rightID of the arena's dense
	// node IDs, is in one of them once its join alternatives have been
	// generated. pairBase is strictly ascending and never written in
	// place: a restore starts from its snapshot's, and a snapshot taken
	// here and every optimizer restored from it share it. pairLog holds,
	// unsorted, the pairs combined since the last foldPairs, which
	// merges them into a new base. The two are disjoint.
	pairBase []uint64
	pairLog  []uint64

	// prevBounds/prevRes record the previous invocation's focus to
	// decide whether the Δ filter is sound (the bounds-tightening,
	// resolution-refining series of Section 4.2).
	prevBounds cost.Vector
	prevRes    int

	// done is the completed-focus ledger (DESIGN.md D18): done[r], when
	// set, is a bound vector B such that an invocation at focus (B, r) ran
	// to completion as a full memo-guarded walk (Δ filter off) and no
	// entry has entered a result or candidate index at a level ≤ r since.
	// An invocation at (b, r) with b ⪯ B then has nothing to do. prune
	// clears done[ℓ..] on every insert at level ℓ. The vectors are views
	// of doneBuf, so recording never allocates.
	done    []cost.Vector
	doneBuf []float64
	// anchored says that the previous invocation left the state a full
	// walk at its focus (prevBounds, prevRes) would leave, with no
	// result entry above level prevRes; resTop is the highest level of
	// any result entry (-1 when there is none). A Δ-filtered invocation
	// of an anchored series completes its focus as a full walk would,
	// so it records too (DESIGN.md D18).
	anchored bool
	resTop   int

	initialized bool
	stats       Stats

	// Scratch state reused across calls (DESIGN.md D9): the refinement
	// inner loop must not heap-allocate per prune call or per sub-plan
	// pair. An Optimizer is single-threaded, so one set of buffers
	// suffices; none of the buffers is live across exported calls.
	unbounded     cost.Vector        // cached ∞ bounds for b == nil
	scaledScratch cost.Vector        // α_r·c(p) in prune
	boundScratch  cost.Vector        // query box min(α_r·c(p), b) in prune
	drainScratch  []rangeindex.Entry // phase-one candidate retrieval
	altNodes      []plan.Node        // one pair's join alternatives, by value
	altFloats     []float64          // backing store of altNodes' cost vectors
	altsScratch   []*plan.Node       // scan plans, or pointers into altNodes
	altsKeep      []bool             // frontier filter over altsScratch
	split         costmodel.Split    // the split of the last pair combinePairs enumerated
	pairL, pairR  *plan.Node         // that pair: the sub-plans of the scratch alternatives
	sortKeys      []sortKey          // frontierFilter's input, sorted by cost
	sweepKept     []planRec          // frontierFilter's kept plans, in sorted order
	visAll        []*plan.Node       // visible-set collection
	visEpochs     []uint64           // insertion epochs of visAll
	visKeep       []bool             // frontier filter over visAll
	visCache      map[tableset.Set]*visibleSets
	visPool       []*visibleSets // recycled visibleSets across invocations
	visUsed       int

	// visCollect is visible's range-query visitor, allocated once so
	// that Query calls in the hot path create no closures.
	visCollect func(rangeindex.Entry) bool

	// rootCollect is AppendResultsAt's visitor, appending to rootOut.
	rootCollect func(rangeindex.Entry) bool
	rootOut     []*plan.Node

	// witnesses[:witN] are the result plans of table set witSub that
	// most recently proved an exact dominance in the current invocation,
	// most recent first, by value; prune probes them before the index
	// (DESIGN.md D9). Emptied whenever witSub or the invocation changes.
	witnesses [witnessCap]planRec
	witN      int
	witSub    tableset.Set
}

// pairID packs an ordered sub-plan pair into the memo key. Node IDs are
// unique within one optimizer (the arena assigns them densely, and
// snapshot restore continues the source numbering), so the packed key
// collides exactly when the pair is the same.
func pairID(l, r *plan.Node) uint64 {
	return uint64(l.ID())<<32 | uint64(r.ID())
}

// NewOptimizer creates an optimizer for query q. The scan plans are
// generated lazily on the first Optimize call (equivalent to the paper's
// Algorithm 1, which prunes scan plans with the initial bounds before the
// first optimizer invocation).
func NewOptimizer(q *query.Query, cfg Config) (*Optimizer, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if q.Catalog().NumTables() > 0 && cfg.Model.Space().Dim() > rangeindex.MaxDims {
		return nil, fmt.Errorf("core: %d cost metrics exceed the index limit %d",
			cfg.Model.Space().Dim(), rangeindex.MaxDims)
	}
	dim := cfg.Model.Space().Dim()
	o := &Optimizer{
		cfg:           cfg,
		q:             q,
		res:           map[tableset.Set]*rangeindex.Index{},
		cand:          map[tableset.Set]*rangeindex.Index{},
		arena:         plan.NewArena(),
		done:          make([]cost.Vector, cfg.ResolutionLevels),
		doneBuf:       make([]float64, cfg.ResolutionLevels*dim),
		resTop:        -1,
		unbounded:     cost.Unbounded(dim),
		scaledScratch: cost.NewVector(dim),
		boundScratch:  cost.NewVector(dim),
		visCache:      map[tableset.Set]*visibleSets{},
	}
	o.visCollect = func(e rangeindex.Entry) bool {
		o.visAll = append(o.visAll, e.Payload)
		o.visEpochs = append(o.visEpochs, e.Epoch)
		return true
	}
	o.rootCollect = func(e rangeindex.Entry) bool {
		o.rootOut = append(o.rootOut, e.Payload)
		return true
	}
	o.subsetsBySize = connectedSubsets(q)
	return o, nil
}

// MustNewOptimizer is NewOptimizer but panics on error.
func MustNewOptimizer(q *query.Query, cfg Config) *Optimizer {
	o, err := NewOptimizer(q, cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// connectedSubsets enumerates the connected subsets of the query's join
// graph grouped by cardinality; subsetsBySize[k-1] holds the k-table
// subsets. Only connected subsets can be joined without a cartesian
// product, so the DP never visits the others.
func connectedSubsets(q *query.Query) [][]tableset.Set {
	n := q.NumTables()
	out := make([][]tableset.Set, n)
	q.Tables().Subsets(func(sub tableset.Set) bool {
		if q.Connected(sub) {
			out[sub.Len()-1] = append(out[sub.Len()-1], sub)
		}
		return true
	})
	return out
}

// Query returns the optimizer's query.
func (o *Optimizer) Query() *query.Query { return o.q }

// Config returns the optimizer's configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Stats returns the cumulative statistics counters. The retrieval ledger
// is kept by the range indexes and summed here.
func (o *Optimizer) Stats() Stats {
	st := o.stats
	for _, set := range [2]map[tableset.Set]*rangeindex.Index{o.res, o.cand} {
		for _, ix := range set {
			tested, matched := ix.Retrievals()
			st.EntriesTested += tested
			st.EntriesMatched += matched
		}
	}
	return st
}

// cellBase is the logarithmic cell width of the plan sets' range
// indexes: a constant measured on BenchmarkOptimizePopulation, not a
// knob (DESIGN.md D4). The cells have to be about the size of the
// question prune asks — a box α_r·c(p) wide, with α_r between 1.01 and
// 1.06 in the paper's schedules — or a query tests many times the
// entries it retrieves.
const cellBase = 1.15

// newIndex returns an empty plan-set index of the optimizer's geometry.
func (o *Optimizer) newIndex() *rangeindex.Index {
	return rangeindex.MustNew(o.cfg.Model.Space().Dim(), o.cfg.MaxResolution(), cellBase)
}

// resFor returns (creating on demand) the result index for table set s.
func (o *Optimizer) resFor(s tableset.Set) *rangeindex.Index {
	ix, ok := o.res[s]
	if !ok {
		ix = o.newIndex()
		o.res[s] = ix
	}
	return ix
}

// candFor returns (creating on demand) the candidate index for s.
func (o *Optimizer) candFor(s tableset.Set) *rangeindex.Index {
	ix, ok := o.cand[s]
	if !ok {
		ix = o.newIndex()
		o.cand[s] = ix
	}
	return ix
}

// Optimize runs one incremental optimizer invocation for cost bounds b
// and resolution r (the paper's Algorithm 2). After it returns, the
// result set for every k-table subset q restricted to [0..b, 0..r] is an
// α_r^k-approximate b-bounded Pareto plan set. Bounds may be nil for
// "no bounds".
func (o *Optimizer) Optimize(b cost.Vector, r int) {
	dim := o.cfg.Model.Space().Dim()
	if b == nil {
		b = o.unbounded
	}
	if b.Dim() != dim {
		panic(fmt.Sprintf("core: bounds dim %d, space dim %d", b.Dim(), dim))
	}
	rM := o.cfg.MaxResolution()
	if r < 0 || r > rM {
		panic(fmt.Sprintf("core: resolution %d outside [0,%d]", r, rM))
	}

	// Decide whether the Δ filter is sound for this invocation: within
	// a series that only tightens bounds and refines resolution, all
	// result plans visible under the current focus have already been
	// combined pairwise, so Fresh may restrict to pairs involving a
	// plan inserted in the current invocation.
	deltaOK := o.initialized && !o.cfg.DisableDeltaFilter &&
		b.Dominates(o.prevBounds) && r >= o.prevRes

	o.epoch++
	o.stats.Invocations++
	o.witN = 0 // witnesses were retrieved under the previous focus

	switch d := o.done[r]; {
	case d != nil && b.Dominates(d):
		// The ledger covers the focus: no candidate lies within it and
		// every pair of visible result plans is in the memo, so both
		// phases would come up empty, as a full walk's would.
		o.stats.CoveredInvocations++
		o.anchored = o.resTop <= r
	case !deltaOK:
		o.refine(b, r, false)
		o.record(r, b)
		o.anchored = o.resTop <= r
	default:
		// Every old plan visible now was visible and kept under the
		// previous focus, which an anchored series has completed, so
		// its old × old pairs are in the memo (DESIGN.md D18).
		o.refine(b, r, true)
		if o.anchored {
			o.record(r, b)
		}
	}

	if o.prevBounds == nil {
		o.prevBounds = b.Clone()
	} else {
		copy(o.prevBounds, b)
	}
	o.prevRes = r
}

// record enters the focus (b, r) into the completed-focus ledger,
// overwriting the level's slot of doneBuf in place.
func (o *Optimizer) record(r int, b cost.Vector) {
	dim := len(b)
	o.done[r] = o.doneBuf[r*dim : (r+1)*dim : (r+1)*dim]
	copy(o.done[r], b)
}

// refine runs the two phases of Algorithm 2 for the focus (b, r).
func (o *Optimizer) refine(b cost.Vector, r int, deltaOK bool) {
	if !deltaOK {
		// The memo-guarded old × old pairs search the base alone.
		o.foldPairs()
	}
	if !o.initialized {
		o.initScans(b, r)
		o.initialized = true
	}

	// Phase one: reconsider candidate plans registered for the current
	// focus (lines 6–12 of Algorithm 2). Drained candidates are pruned
	// again; pruning may promote them to result plans or re-register
	// them for a higher resolution.
	for size := 1; size <= len(o.subsetsBySize); size++ {
		for _, sub := range o.subsetsBySize[size-1] {
			cand, ok := o.cand[sub]
			if !ok {
				continue
			}
			o.drainScratch = cand.Drain(b, r, o.drainScratch[:0])
			for _, e := range o.drainScratch {
				p := e.Payload
				o.stats.CandidateRetrievals++
				if o.cfg.Hooks.CandidateRetrieved != nil {
					o.cfg.Hooks.CandidateRetrieved(p)
				}
				o.prune(sub, b, r, p, false)
			}
		}
	}

	// Phase two: combine fresh sub-plan pairs bottom-up (lines 13–22).
	// The visible-set cache is per invocation: subsets are processed in
	// ascending size, so each split operand's result set is final when
	// first collected. The cache map and its visibleSets are recycled
	// across invocations.
	clear(o.visCache)
	o.visUsed = 0
	for size := 2; size <= len(o.subsetsBySize); size++ {
		for _, sub := range o.subsetsBySize[size-1] {
			sub.AllSplits(func(q1, q2 tableset.Set) bool {
				if !o.q.Connected(q1) || !o.q.Connected(q2) {
					return true
				}
				if _, edges := o.q.CrossSelectivity(q1, q2); edges == 0 {
					return true // cartesian product: never planned
				}
				o.combineFresh(sub, q1, q2, b, r, deltaOK)
				return true
			})
		}
	}
}

// initScans generates and prunes all scan plans (the initialization
// before the main loop in Algorithm 1).
func (o *Optimizer) initScans(b cost.Vector, r int) {
	o.q.Tables().ForEach(func(id int) {
		sub := tableset.Singleton(id)
		o.altsScratch = o.cfg.Model.AppendScanPlans(o.altsScratch[:0], o.q, id, o.arena)
		for _, p := range o.altsScratch {
			o.stats.PlansGenerated++
			if o.cfg.Hooks.PlanGenerated != nil {
				o.cfg.Hooks.PlanGenerated(p)
			}
			o.prune(sub, b, r, p, false)
		}
	})
}

// Results returns the completed plans of the current result set
// restricted to bounds b and resolution r — the paper's visualization
// input Res^Q[0..b, 0..r]. Bounds may be nil for "no bounds".
func (o *Optimizer) Results(b cost.Vector, r int) []*plan.Node {
	return o.ResultsFor(o.q.Tables(), b, r)
}

// ResultsFor returns the result plans for table subset sub restricted to
// bounds b and resolution r.
func (o *Optimizer) ResultsFor(sub tableset.Set, b cost.Vector, r int) []*plan.Node {
	if b == nil {
		b = o.unbounded
	}
	ix, ok := o.res[sub]
	if !ok {
		return nil
	}
	// Sized once: the entries at levels ≤ r bound what the query returns.
	out := make([]*plan.Node, 0, ix.LenUpTo(r))
	ix.Query(b, r, 0, func(e rangeindex.Entry) bool {
		out = append(out, e.Payload)
		return true
	})
	return out
}

// AppendResultsAt appends to dst the root result plans within bounds b
// registered for exactly resolution r and inserted by invocation
// minEpoch or a later one (0 takes them all), in the order Results
// enumerates them, and returns the extended slice. A result plan enters
// at its invocation's own resolution and is never removed, so these are
// what Results(b, r) holds beyond Results(b, r-1), or beyond what it
// held before invocation minEpoch. Bounds may be nil for "no bounds".
func (o *Optimizer) AppendResultsAt(dst []*plan.Node, b cost.Vector, r int, minEpoch uint64) []*plan.Node {
	if b == nil {
		b = o.unbounded
	}
	ix, ok := o.res[o.q.Tables()]
	if !ok {
		return dst
	}
	o.rootOut = dst
	ix.QueryLevel(b, r, minEpoch, o.rootCollect)
	dst, o.rootOut = o.rootOut, nil
	return dst
}

// RestoredFrontier returns the skyline of Results(b, r), in Filter's
// order, when the optimizer can read it off the snapshot it was restored
// from: it holds the snapshot's frontiers and none of its own result
// plans sits at a level ≤ r. The box {c : c ⪯ b} is down-closed, so the
// skyline of the plans inside it is the part inside it of the
// snapshot's skyline of levels 0..r. When b cuts no plan of that
// skyline, the snapshot's slice itself is returned, shared and
// read-only; else a fresh one. ok is false when the optimizer's own
// plans may count. Bounds may be nil for "no bounds".
func (o *Optimizer) RestoredFrontier(b cost.Vector, r int) (frontier []*plan.Node, ok bool) {
	if r < 0 || r >= len(o.frontiers) {
		return nil, false
	}
	if ix := o.res[o.q.Tables()]; ix != nil && ix.EpochWatermark(r) > o.restoredEpoch {
		return nil, false
	}
	all := o.frontiers[r]
	for i, p := range all {
		if b == nil || p.Cost.Dominates(b) {
			continue
		}
		out := append(make([]*plan.Node, 0, len(all)-1), all[:i]...)
		for _, p := range all[i+1:] {
			if p.Cost.Dominates(b) {
				out = append(out, p)
			}
		}
		return out, true
	}
	return all[:len(all):len(all)], true
}

// RenderTable returns the render table of the frontiers the optimizer
// publishes its restored plans from (RestoredFrontier), shared with
// every other restore of its snapshot; nil for a cold optimizer.
func (o *Optimizer) RenderTable() *RenderTable { return o.renders }

// Epoch returns the number of the most recent invocation (0 before the
// first); the result plans it inserted carry it.
func (o *Optimizer) Epoch() uint64 { return o.epoch }

// CandidateCount returns the total number of stored candidate plans
// across all table subsets (space instrumentation, Section 5.2).
func (o *Optimizer) CandidateCount() int {
	total := 0
	for _, ix := range o.cand {
		total += ix.Len()
	}
	return total
}

// ResultCount returns the total number of stored result plans across all
// table subsets.
func (o *Optimizer) ResultCount() int {
	total := 0
	for _, ix := range o.res {
		total += ix.Len()
	}
	return total
}
