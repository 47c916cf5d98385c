package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/pareto"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// Snapshot is an exported copy of an Optimizer's incremental state: the
// result and candidate plan sets per table subset, the IsFresh pair
// memo, the previous invocation's focus, and the completed-focus ledger
// (which foci the state is already complete for). It lets a new
// Optimizer for an identical query (equal query.Fingerprint, same configuration
// and cost model) resume where the snapshotted one left off instead of
// regenerating every plan from scratch — the service's warm-start path.
//
// A Snapshot deep-copies the reachable plan nodes of the source's own
// arena (preserving their IDs and sub-plan sharing) into detached,
// individually allocated nodes: the arena allocates in 512-node chunks
// of which only a fraction stays reachable after pruning, so sharing
// its nodes would pin every chunk — and its cost-vector slabs — for as
// long as the snapshot sits in the service's warm-start cache. The
// copies are immutable after construction, so a snapshot may be
// restored into many optimizers running on different goroutines. An
// optimizer restored from a snapshot shares that snapshot's nodes
// instead of copying them again, and the plan sets it left untouched
// export the very lists they were restored from (DESIGN.md D8). The
// Snapshot itself is immutable once created, apart from the frozen
// cell directories and frontiers its first restore builds. Taking
// a snapshot must not race with Optimize on the source (the caller
// serializes, e.g. the service holds the session lock).
//
// The pair memo travels as packed leftID<<32|rightID keys of the
// source arena's dense node IDs, in one strictly ascending slice that
// is never written again: every optimizer restored from the snapshot
// shares it as its read-only IsFresh base (DESIGN.md D8), and the codec
// writes it as it stands (D12). nextID records where the numbering
// stopped, so a restored optimizer's arena continues it and newly
// generated nodes can never collide with snapshot nodes in the memo.
type Snapshot struct {
	// res and cand hold each plan set's entries in the range index's
	// enumeration order (Snapshot takes them from Index.All, and Remap
	// keeps the order: relabeling moves no cost). Never written after
	// export: the cells of every optimizer restored from the snapshot
	// are windows of these lists (rangeindex.Image, DESIGN.md D4). A
	// re-costed snapshot's lists are in no particular order and are
	// inserted entry by entry instead.
	res, cand map[tableset.Set][]rangeindex.Entry
	// resImg and candImg are the frozen cell directories of res and
	// cand, one rangeindex.Image per list (nil for a list that is not in
	// enumeration order), which every restore adopts (DESIGN.md D4).
	// They are built lazily, at the first restore, under frozen, so a
	// snapshot that is never restored pays nothing for them; an export
	// seeds them with the images of the lists it reused.
	frozen          sync.Once
	resImg, candImg map[tableset.Set]*rangeindex.Image
	pairs           []uint64
	nextID          uint32
	epoch           uint64
	prevBounds      []float64
	prevRes         int

	// frontiers[r] is the skyline (pareto.Filter) of the root result
	// plans at levels 0..r, what a restore that generated nothing
	// publishes at r, and skyRoot the root table set: built under
	// frozen with the images and shared read-only by every restore
	// (DESIGN.md D20). renders is the render table of their plans,
	// filled at its first lookup. An export whose root list is the one
	// it was restored from carries all three.
	frontiers [][]*plan.Node
	skyRoot   tableset.Set
	renders   *RenderTable
	// resTop is the highest level of any result entry (-1 when there
	// is none), found under frozen: a restore's Optimizer.resTop.
	resTop int

	// done is the source's completed-focus ledger (Optimizer.done): one
	// slot per resolution level, nil where nothing is recorded. Never
	// written after export; restores copy it.
	done []cost.Vector

	// Configuration echo, validated on restore: restoring under a
	// different focus geometry or precision schedule would silently
	// break the pruning invariants baked into the copied state.
	cfgEcho string

	// tableStats and edgeStats record the source query's cost-relevant
	// statistics at export time; statsEpoch labels the statistics epoch
	// (observability only — classification compares values, see
	// ClassifyDrift). They make statistics-drift detection self-
	// contained in the snapshot, surviving restarts and store handoffs.
	tableStats []TableStat
	edgeStats  []EdgeStat
	statsEpoch uint64
}

// cfgFingerprint captures every Config field that shapes optimizer
// state, including the cost-model parameters (which determine every
// plan's cost vector). Hooks are observational and excluded. The
// model's part is rendered once per model (costmodel.Model.Echo); the
// string is the one fmt.Sprintf("%dx%d|%g|%g|%v%v%v%v%v|%+v|%v", …)
// renders, which is what stores compare.
func cfgFingerprint(c Config) string {
	var buf [128]byte
	prefix := appendCfgPrefix(buf[:0], c)
	var sb strings.Builder
	sb.Grow(len(prefix) + len(c.Model.Echo()))
	sb.Write(prefix)
	sb.WriteString(c.Model.Echo())
	return sb.String()
}

// cfgMatches reports whether echo is cfgFingerprint(c), without
// rendering it.
func cfgMatches(c Config, echo string) bool {
	var buf [128]byte
	prefix, model := appendCfgPrefix(buf[:0], c), c.Model.Echo()
	return len(echo) == len(prefix)+len(model) &&
		echo[:len(prefix)] == string(prefix) && echo[len(prefix):] == model
}

// appendCfgPrefix appends the part of cfgFingerprint(c) before the
// model's echo.
func appendCfgPrefix(dst []byte, c Config) []byte {
	dst = strconv.AppendInt(dst, int64(c.Model.Space().Dim()), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(c.ResolutionLevels), 10)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, c.TargetPrecision, 'g', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, c.PrecisionStep, 'g', -1, 64)
	dst = append(dst, '|')
	for _, f := range [...]bool{c.PruneAgainstAll, c.DisableDeltaFilter, c.DisableOrderAwarePruning,
		c.RetainDominatedCandidates, c.DisableVisibleFrontierFilter} {
		dst = strconv.AppendBool(dst, f)
	}
	return append(dst, '|')
}

// Snapshot exports the optimizer's current plan-set state. Returns nil
// before the first Optimize call (there is nothing to warm-start from).
func (o *Optimizer) Snapshot() *Snapshot {
	if !o.initialized {
		return nil
	}
	if o.echo == "" {
		o.echo = cfgFingerprint(o.cfg)
	}
	s := &Snapshot{
		res:        make(map[tableset.Set][]rangeindex.Entry, len(o.res)),
		cand:       make(map[tableset.Set][]rangeindex.Entry, len(o.cand)),
		pairs:      o.exportPairs(),
		nextID:     o.arena.NextID(),
		epoch:      o.epoch,
		prevBounds: append([]float64(nil), o.prevBounds...),
		prevRes:    o.prevRes,
		done:       o.exportDone(),
		cfgEcho:    o.echo,
		tableStats: captureTableStats(o.q),
		edgeStats:  captureEdgeStats(o.q),
	}
	// Detach every entry off the source arena, preserving node IDs and
	// sub-plan sharing (one shared memo across all plan sets). Nodes
	// below the restore's watermark are the restored snapshot's, already
	// detached and immutable: they are shared, not copied. A plan set
	// no write has changed since the restore exports the list it was
	// restored from, with that list's image.
	copies := map[*plan.Node]*plan.Node{}
	collect := func(src map[tableset.Set]*rangeindex.Index, dst map[tableset.Set][]rangeindex.Entry) map[tableset.Set]*rangeindex.Image {
		var imgs map[tableset.Set]*rangeindex.Image
		for sub, ix := range src {
			if ix.Len() == 0 {
				continue
			}
			if img := ix.Frozen(); img != nil {
				if imgs == nil {
					imgs = map[tableset.Set]*rangeindex.Image{}
				}
				dst[sub], imgs[sub] = img.Entries(), img
				continue
			}
			entries := make([]rangeindex.Entry, 0, ix.Len())
			ix.All(func(e rangeindex.Entry) bool {
				e.Payload = plan.DetachInto(copies, e.Payload, o.shared)
				e.Cost = e.Payload.Cost
				entries = append(entries, e)
				return true
			})
			dst[sub] = entries
		}
		return imgs
	}
	s.resImg = collect(o.res, s.res)
	s.candImg = collect(o.cand, s.cand)
	if root := o.q.Tables(); s.resImg[root] != nil && o.frontiers != nil {
		s.frontiers, s.skyRoot, s.renders = o.frontiers, root, o.renders
	}
	return s
}

// derive builds, at its first call, the frozen cell directories of
// the snapshot's plan sets (resImg, candImg), the prefix skylines of
// its root result list (frontiers, skyRoot) with their render table
// (renders, empty until a poll needs it) and resTop, at the geometry of
// the restoring optimizer o (the configuration echo fixes it for every
// restore). A list whose image an export carried over keeps it, and so
// do carried frontiers. The fields are read-only once it returns.
func (s *Snapshot) derive(o *Optimizer) {
	s.frozen.Do(func() {
		ix := o.newIndex()
		freeze := func(lists map[tableset.Set][]rangeindex.Entry, carried map[tableset.Set]*rangeindex.Image) map[tableset.Set]*rangeindex.Image {
			imgs := make(map[tableset.Set]*rangeindex.Image, len(lists))
			for sub, entries := range lists {
				img := carried[sub]
				if img == nil {
					img = ix.Freeze(entries)
				}
				imgs[sub] = img
			}
			return imgs
		}
		s.resImg = freeze(s.res, s.resImg)
		s.candImg = freeze(s.cand, s.candImg)
		s.resTop = -1
		for _, entries := range s.res {
			for _, e := range entries {
				s.resTop = max(s.resTop, e.Resolution)
			}
		}
		if s.frontiers == nil {
			for sub := range s.res {
				s.skyRoot = s.skyRoot.Union(sub)
			}
			levels := levelSkylines(s.res[s.skyRoot], o.cfg.MaxResolution()+1)
			s.frontiers = make([][]*plan.Node, len(levels))
			var f []*plan.Node
			for r, level := range levels {
				f = pareto.Merge(f, level)
				s.frontiers[r] = f
			}
			s.renders = NewRenderTable(s.frontiers)
		}
	})
}

// levelSkylines returns, for each of the given number of levels, the
// skyline of the plans of the entries registered at it.
func levelSkylines(entries []rangeindex.Entry, levels int) [][]*plan.Node {
	start := make([]int, levels+1)
	for _, e := range entries {
		start[e.Resolution+1]++
	}
	for r := 1; r <= levels; r++ {
		start[r] += start[r-1]
	}
	byLevel := make([]*plan.Node, len(entries))
	next := slices.Clone(start[:levels])
	for _, e := range entries {
		byLevel[next[e.Resolution]] = e.Payload
		next[e.Resolution]++
	}
	sky := make([][]*plan.Node, levels)
	for r := range sky {
		sky[r] = pareto.Filter(byLevel[start[r]:start[r+1]])
	}
	return sky
}

// exportDone returns a detached copy of the completed-focus ledger.
func (o *Optimizer) exportDone() []cost.Vector {
	out := make([]cost.Vector, len(o.done))
	for r, d := range o.done {
		if d != nil {
			out[r] = d.Clone()
		}
	}
	return out
}

// exportPairs folds the pair log and returns the base: the whole IsFresh
// memo as one strictly ascending slice the caller may share but not
// write.
func (o *Optimizer) exportPairs() []uint64 {
	o.foldPairs()
	return o.pairBase
}

// Remap returns a copy of the snapshot rewritten onto a new table
// labeling: every table ID id that appears in the snapshot's plan state
// is replaced by perm[id]. Scan table IDs, per-node and per-subset
// tableset bitmaps, and interesting-order tags move to the new labels;
// node IDs, sub-plan sharing, the packed pair memo, cost vectors,
// epochs, the focus echo and the completed-focus ledger are preserved
// unchanged (the D8 invariants and the ledger's are label-free, and
// costs stay valid because callers only remap onto tables with
// identical statistics — query.CanonicalFingerprint's equal-digest
// guarantee). The result restores through
// NewOptimizerFromSnapshot for a query that is isomorphic to the
// snapshot's source under perm.
//
// perm must injectively map every snapshot table to a valid table ID;
// violations return an error. The receiver is never mutated (snapshots
// are shared), and an identity permutation returns the receiver
// without copying. Remap runs at restore time only — never on the
// refinement hot path.
func (s *Snapshot) Remap(perm []int) (*Snapshot, error) {
	var universe tableset.Set
	for sub := range s.res {
		universe = universe.Union(sub)
	}
	for sub := range s.cand {
		universe = universe.Union(sub)
	}
	identity := true
	for _, id := range universe.Indices() {
		if id >= len(perm) || perm[id] < 0 || perm[id] >= tableset.MaxTables {
			return nil, fmt.Errorf("core: remap permutation undefined for snapshot table %d", id)
		}
		if perm[id] != id {
			identity = false
		}
	}
	if identity {
		return s, nil
	}
	if universe.Map(perm).Len() != universe.Len() {
		return nil, fmt.Errorf("core: remap permutation is not injective on snapshot tables %v", universe)
	}
	out := &Snapshot{
		res:  make(map[tableset.Set][]rangeindex.Entry, len(s.res)),
		cand: make(map[tableset.Set][]rangeindex.Entry, len(s.cand)),
		// Node IDs are untouched by relabeling, so the packed pair memo
		// and the numbering watermark carry over verbatim; the slices
		// are immutable once built and safe to share.
		pairs:      s.pairs,
		nextID:     s.nextID,
		epoch:      s.epoch,
		prevBounds: s.prevBounds,
		prevRes:    s.prevRes,
		done:       s.done,
		cfgEcho:    s.cfgEcho,
		statsEpoch: s.statsEpoch,
	}
	// The recorded statistics move to the new labels with the plans;
	// values are unchanged (remapping is only sound between queries
	// with identical statistics). Rates slices are immutable and shared.
	out.tableStats = make([]TableStat, len(s.tableStats))
	for i, ts := range s.tableStats {
		if ts.ID < len(perm) && perm[ts.ID] >= 0 {
			ts.ID = perm[ts.ID]
		}
		out.tableStats[i] = ts
	}
	sort.Slice(out.tableStats, func(i, j int) bool { return out.tableStats[i].ID < out.tableStats[j].ID })
	out.edgeStats = make([]EdgeStat, len(s.edgeStats))
	for i, es := range s.edgeStats {
		if es.A < len(perm) && perm[es.A] >= 0 {
			es.A = perm[es.A]
		}
		if es.B < len(perm) && perm[es.B] >= 0 {
			es.B = perm[es.B]
		}
		if es.A > es.B {
			es.A, es.B = es.B, es.A
		}
		out.edgeStats[i] = es
	}
	sort.Slice(out.edgeStats, func(i, j int) bool {
		if out.edgeStats[i].A != out.edgeStats[j].A {
			return out.edgeStats[i].A < out.edgeStats[j].A
		}
		if out.edgeStats[i].B != out.edgeStats[j].B {
			return out.edgeStats[i].B < out.edgeStats[j].B
		}
		return out.edgeStats[i].Sel < out.edgeStats[j].Sel
	})
	// One shared memo keeps sub-plan sharing intact across all plan
	// sets, exactly like Snapshot's detach pass.
	memo := map[*plan.Node]*plan.Node{}
	remap := func(src, dst map[tableset.Set][]rangeindex.Entry) {
		for sub, entries := range src {
			es := make([]rangeindex.Entry, len(entries))
			for i, e := range entries {
				e.Payload = plan.RemapInto(memo, perm, e.Payload)
				e.Cost = e.Payload.Cost
				es[i] = e
			}
			dst[sub.Map(perm)] = es
		}
	}
	remap(s.res, out.res)
	remap(s.cand, out.cand)
	return out, nil
}

// PlanCount returns the number of stored result plus candidate entries,
// a cheap size proxy for cache accounting.
func (s *Snapshot) PlanCount() int {
	n := 0
	for _, entries := range s.res {
		n += len(entries)
	}
	for _, entries := range s.cand {
		n += len(entries)
	}
	return n
}

// maxRestoreNextID is the largest snapshot nextID a restore accepts.
// Snapshot lineages (converge → snapshot → warm restore → converge …)
// never reset the dense node numbering, so a long-lived service could
// otherwise walk the uint32 space to exhaustion and panic the arena;
// declining the warm start instead restarts the lineage from zero at
// the cost of one cold optimization. Half the ID space (2^31 ≈ 2.1 B
// nodes) is kept as headroom so even regimes generating tens of
// millions of nodes cannot cross from an accepted restore into
// exhaustion.
const maxRestoreNextID = 1 << 31

// NewOptimizerFromSnapshot creates an optimizer for query q that resumes
// from the snapshotted plan-set state instead of starting empty. The
// caller is responsible for q being plan-compatible with the snapshot's
// source query — equal query.Fingerprint guarantees this — and cfg must
// match the snapshot's configuration and cost-model parameters exactly
// (validated; mismatches return an error rather than corrupt state).
// Snapshots whose node-ID numbering is close to exhaustion are refused;
// callers should fall back to a cold start (which resets the lineage).
func NewOptimizerFromSnapshot(q *query.Query, cfg Config, s *Snapshot) (*Optimizer, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if s.nextID > maxRestoreNextID {
		return nil, fmt.Errorf("core: snapshot node IDs near exhaustion (%d)", s.nextID)
	}
	o, err := NewOptimizer(q, cfg)
	if err != nil {
		return nil, err
	}
	if !cfgMatches(o.cfg, s.cfgEcho) {
		return nil, fmt.Errorf("core: snapshot config mismatch: snapshot %q, restore %q", s.cfgEcho, cfgFingerprint(o.cfg))
	}
	o.echo = s.cfgEcho
	// Continue the snapshot's dense node numbering: restored entries
	// keep their source-arena IDs, so fresh allocations must start
	// above them for the packed pair memo to stay collision-free. Every
	// node below the watermark is the snapshot's, and a re-export
	// shares it (DESIGN.md D8).
	o.arena = plan.NewArenaFrom(s.nextID)
	o.shared = s.nextID
	for _, lists := range [...]map[tableset.Set][]rangeindex.Entry{s.res, s.cand} {
		for sub := range lists {
			if !sub.SubsetOf(q.Tables()) {
				return nil, fmt.Errorf("core: snapshot subset %v outside query tables %v", sub, q.Tables())
			}
		}
	}
	// The plan sets are shared like the memo below: each index adopts
	// its list's frozen cell directory, whose cells are windows of the
	// snapshot's list, and copies a directory or a cell before it
	// changes one (DESIGN.md D4). A list out of enumeration order (a
	// re-costed snapshot's) has no image and is inserted entry by entry.
	s.derive(o)
	restore := func(src map[tableset.Set][]rangeindex.Entry, imgs map[tableset.Set]*rangeindex.Image, dst func(tableset.Set) *rangeindex.Index) {
		for sub, entries := range src {
			ix := dst(sub)
			if img := imgs[sub]; img != nil {
				ix.Adopt(img)
				continue
			}
			for _, e := range entries {
				ix.Insert(e)
			}
		}
	}
	restore(s.res, s.resImg, o.resFor)
	restore(s.cand, s.candImg, o.candFor)
	// The memo is shared, not copied: the snapshot's ascending pairs
	// become the base, and pairs this optimizer combines go to its own
	// (still empty) log.
	o.pairBase = s.pairs
	o.epoch = s.epoch
	// Every entry of the root list carries an epoch up to the
	// snapshot's: later ones are this optimizer's own.
	if s.skyRoot == q.Tables() {
		o.frontiers, o.renders, o.restoredEpoch = s.frontiers, s.renders, s.epoch
	}
	o.resTop = s.resTop
	o.prevBounds = append([]float64(nil), s.prevBounds...)
	o.prevRes = s.prevRes
	// The ledger is copied into this optimizer's own buffer: recording
	// overwrites the vectors in place.
	if len(s.done) > len(o.done) {
		return nil, fmt.Errorf("core: snapshot ledger has %d levels, configuration %d", len(s.done), len(o.done))
	}
	dim := cfg.Model.Space().Dim()
	for r, d := range s.done {
		if d == nil {
			continue
		}
		if d.Dim() != dim {
			return nil, fmt.Errorf("core: snapshot ledger dim %d, space dim %d", d.Dim(), dim)
		}
		o.record(r, d)
	}
	o.initialized = true
	return o, nil
}
