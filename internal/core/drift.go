package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// TableStat records the cost-relevant statistics of one member table as
// they were when a snapshot was taken: everything AppendScanPlans and
// the join cardinality model read. A snapshot carries one per member
// table (sorted by ID), which makes drift classification self-contained
// — comparing the recorded values against a new query's catalog needs
// no version history, so it survives restarts and foreign stores where
// epoch labels are process-local.
type TableStat struct {
	ID       int
	Rows     float64
	Width    float64
	Filter   float64 // the query's filter selectivity on this table
	HasIndex bool
	Rates    []float64 // sampling rates, sorted ascending
}

// EdgeStat records one join edge's selectivity (endpoints normalized
// A < B, sorted by (A, B, Sel)).
type EdgeStat struct {
	A, B int
	Sel  float64
}

// DriftClass is the outcome of comparing a snapshot's recorded
// statistics against a query's live catalog.
type DriftClass int

const (
	// DriftNone: every recorded statistic equals the live one. In
	// practice unreachable through the cache's drift tier — identical
	// statistics imply an identical exact fingerprint, which hits the
	// exact tier first.
	DriftNone DriftClass = iota
	// DriftSmall: values moved, all within the relative threshold. The
	// cached plan sets stay structurally valid; a bottom-up Recost pass
	// makes them cost-identical to enumeration under the new statistics.
	DriftSmall
	// DriftLarge: at least one value moved beyond the threshold. Costs
	// are re-computed the same way, but the pruning decisions baked into
	// the cached sets are suspect, so refinement resumes from the
	// re-costed plan sets with the pair memo dropped (alternatives are
	// regenerated and re-pruned against the cached context) instead of
	// trusting them verbatim.
	DriftLarge
	// DriftIncompatible: the drift is structural — the table set, join
	// topology, index availability or sampling-rate offering changed —
	// so the cached alternatives no longer enumerate the same space.
	// Callers quarantine the entry and cold-start.
	DriftIncompatible
)

// String returns the class name used in metrics labels and traces.
func (c DriftClass) String() string {
	switch c {
	case DriftNone:
		return "none"
	case DriftSmall:
		return "small"
	case DriftLarge:
		return "large"
	case DriftIncompatible:
		return "incompatible"
	default:
		return "unknown"
	}
}

// DefaultDriftThreshold is the relative-change boundary between small
// and large drift when the caller does not configure one.
const DefaultDriftThreshold = 0.5

// captureTableStats records q's per-table statistics, sorted by ID
// (ForEach iterates ascending).
func captureTableStats(q *query.Query) []TableStat {
	out := make([]TableStat, 0, q.NumTables())
	q.Tables().ForEach(func(id int) {
		t := q.Catalog().Table(id)
		rates := append([]float64(nil), t.SamplingRates...)
		sort.Float64s(rates)
		out = append(out, TableStat{
			ID:       id,
			Rows:     t.Rows,
			Width:    t.RowWidth,
			Filter:   q.FilterSelectivity(id),
			HasIndex: t.HasIndex,
			Rates:    rates,
		})
	})
	return out
}

// captureEdgeStats records q's join edges, normalized and sorted.
func captureEdgeStats(q *query.Query) []EdgeStat {
	edges := q.Edges()
	out := make([]EdgeStat, 0, len(edges))
	for _, e := range edges {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		out = append(out, EdgeStat{A: a, B: b, Sel: e.Selectivity})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].Sel < out[j].Sel
	})
	return out
}

// rel is the relative change from old to new; old is positive for every
// statistic we record (catalog validation pins rows/width > 0,
// selectivities in (0, 1]).
func rel(old, new float64) float64 {
	return math.Abs(new-old) / old
}

// ClassifyDrift compares the statistics the snapshot was costed under
// against query q's live catalog and classifies the drift, returning
// the class and the maximum relative change observed across table
// cardinalities, row widths, filter and join selectivities. threshold
// is the small/large boundary (<= 0 uses DefaultDriftThreshold).
// Structural differences — a different table set or topology, an index
// appearing or disappearing, a changed sampling-rate offering, or a
// snapshot predating statistics capture — classify as
// DriftIncompatible (magnitude 0): the cached alternatives no longer
// enumerate the live search space in either direction.
func (s *Snapshot) ClassifyDrift(q *query.Query, threshold float64) (DriftClass, float64) {
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	if len(s.tableStats) == 0 {
		return DriftIncompatible, 0
	}
	cur := captureTableStats(q)
	if len(cur) != len(s.tableStats) {
		return DriftIncompatible, 0
	}
	maxRel := 0.0
	note := func(r float64) {
		if r > maxRel {
			maxRel = r
		}
	}
	for i := range cur {
		old, now := s.tableStats[i], cur[i]
		if old.ID != now.ID || old.HasIndex != now.HasIndex || !equalRates(old.Rates, now.Rates) {
			return DriftIncompatible, 0
		}
		note(rel(old.Rows, now.Rows))
		note(rel(old.Width, now.Width))
		note(rel(old.Filter, now.Filter))
	}
	curEdges := captureEdgeStats(q)
	if len(curEdges) != len(s.edgeStats) {
		return DriftIncompatible, 0
	}
	for i := range curEdges {
		old, now := s.edgeStats[i], curEdges[i]
		if old.A != now.A || old.B != now.B {
			return DriftIncompatible, 0
		}
		note(rel(old.Sel, now.Sel))
	}
	switch {
	case maxRel == 0:
		return DriftNone, 0
	case maxRel <= threshold:
		return DriftSmall, maxRel
	default:
		return DriftLarge, maxRel
	}
}

func equalRates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Recost returns a copy of the snapshot whose every plan node carries
// costs recomputed under query q's live statistics: scan nodes are
// re-evaluated closed-form and join nodes recombine from their
// re-costed children in one bottom-up pass over the detached DAG
// (sub-plan sharing preserved through a memo, node IDs untouched).
// Every cost vector in the result is freshly allocated — the receiver,
// its nodes and its vectors are never mutated, so snapshots shared with
// live sessions or other cache readers stay exactly as they were
// (DESIGN.md D15). The completed-focus ledger is not carried over: it
// vouches for pruning decisions made under the old costs. cfg must
// match the snapshot's configuration echo; q must be classified
// DriftSmall or DriftLarge against the snapshot first (structurally
// incompatible queries make Recost fail with an error, never produce
// wrong costs).
//
// The result restores through NewOptimizerFromSnapshot for q. For
// small drift the restored optimizer re-prunes the re-costed entries
// without generating a single new plan (the pair memo still covers
// every combination); for large drift callers additionally DropPairs
// so refinement regenerates alternatives against the re-costed
// context.
func (s *Snapshot) Recost(q *query.Query, cfg Config) (*Snapshot, error) {
	echo, err := ConfigFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	if echo != s.cfgEcho {
		return nil, fmt.Errorf("core: recost config mismatch: snapshot %q, live %q", s.cfgEcho, echo)
	}
	model := cfg.Model
	out := &Snapshot{
		res:        make(map[tableset.Set][]rangeindex.Entry, len(s.res)),
		cand:       make(map[tableset.Set][]rangeindex.Entry, len(s.cand)),
		pairs:      s.pairs,
		nextID:     s.nextID,
		epoch:      s.epoch,
		prevBounds: s.prevBounds,
		prevRes:    s.prevRes,
		cfgEcho:    s.cfgEcho,
		tableStats: captureTableStats(q),
		edgeStats:  captureEdgeStats(q),
		statsEpoch: s.statsEpoch, // callers restamp with the live epoch
	}
	memo := map[*plan.Node]*plan.Node{}
	var recost func(n *plan.Node) (*plan.Node, error)
	recost = func(n *plan.Node) (*plan.Node, error) {
		if c, ok := memo[n]; ok {
			return c, nil
		}
		cp := *n // whole-struct copy keeps the dense arena ID
		c := &cp
		if n.IsScan() {
			if err := model.RecostScan(q, c); err != nil {
				return nil, err
			}
		} else {
			l, err := recost(n.Left)
			if err != nil {
				return nil, err
			}
			r, err := recost(n.Right)
			if err != nil {
				return nil, err
			}
			c.Left, c.Right = l, r
			if err := model.RecostJoin(q, c); err != nil {
				return nil, err
			}
		}
		memo[n] = c
		return c, nil
	}
	rewrite := func(src, dst map[tableset.Set][]rangeindex.Entry) error {
		for sub, entries := range src {
			if !sub.SubsetOf(q.Tables()) {
				return fmt.Errorf("core: recost subset %v outside query tables %v", sub, q.Tables())
			}
			es := make([]rangeindex.Entry, len(entries))
			for i, e := range entries {
				p, err := recost(e.Payload)
				if err != nil {
					return err
				}
				e.Payload = p
				e.Cost = p.Cost
				es[i] = e
			}
			dst[sub] = es
		}
		return nil
	}
	if err := rewrite(s.res, out.res); err != nil {
		return nil, err
	}
	if err := rewrite(s.cand, out.cand); err != nil {
		return nil, err
	}
	return out, nil
}

// DropPairs clears the pair memo so a restore regenerates and re-prunes
// every join combination against the (re-costed) cached plan sets — the
// large-drift resume path — and with the memo the completed-focus
// ledger, whose records rest on it. Only call it on a snapshot the
// caller exclusively owns (e.g. fresh from Recost), never on one already
// shared through a cache.
func (s *Snapshot) DropPairs() { s.pairs, s.done = nil, nil }

// StatsEpoch returns the statistics-epoch label the snapshot was costed
// under (0 when no versioned catalog was configured). The label is
// observability metadata — drift classification compares recorded
// statistic values, never labels.
func (s *Snapshot) StatsEpoch() uint64 { return s.statsEpoch }

// SetStatsEpoch stamps the statistics-epoch label. Only call it on a
// snapshot the caller exclusively owns (freshly exported or re-costed),
// before it is shared through a cache or store.
func (s *Snapshot) SetStatsEpoch(v uint64) { s.statsEpoch = v }
