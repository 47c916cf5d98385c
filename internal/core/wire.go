package core

import (
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/rangeindex"
	"repro/internal/tableset"
)

// SnapshotWire is the serialization view of a Snapshot: the same state
// the in-memory struct holds, exposed field by field so a codec outside
// this package (internal/snapcodec) can flatten it to a stable byte
// format without core growing any encoding logic.
//
// A wire view obtained from Snapshot.Wire shares the snapshot's maps,
// slices and plan nodes — all immutable by the Snapshot contract — so
// the caller must treat everything reachable from it as read-only. A
// view passed to SnapshotFromWire transfers ownership the other way:
// the caller must not retain or mutate it afterwards.
type SnapshotWire struct {
	// Res and Cand are the result and candidate plan-set entries per
	// table subset. Entry payloads are detached plan nodes whose dense
	// arena IDs (plan.Node.ID) are unique across the whole snapshot and
	// topologically ordered (children precede parents), which is what
	// makes a flat index encoding possible.
	Res, Cand map[tableset.Set][]rangeindex.Entry
	// Pairs is the packed leftID<<32|rightID pair memo, strictly
	// ascending in a view obtained from Snapshot.Wire.
	Pairs []uint64
	// NextID is the dense node numbering watermark restores continue at.
	NextID uint32
	// Epoch is the source optimizer's invocation counter.
	Epoch uint64
	// PrevBounds and PrevRes record the previous invocation's focus.
	PrevBounds []float64
	PrevRes    int
	// Done is the completed-focus ledger: one slot per resolution level,
	// nil where nothing is recorded; a nil slice is an empty ledger.
	Done []cost.Vector
	// CfgEcho is the configuration fingerprint validated on restore.
	CfgEcho string
	// TableStats and EdgeStats are the source query's recorded
	// statistics (drift classification input); StatsEpoch is the
	// statistics-epoch label the snapshot was costed under.
	TableStats []TableStat
	EdgeStats  []EdgeStat
	StatsEpoch uint64
}

// Wire returns the snapshot's serialization view. Everything reachable
// from it is shared with the snapshot and must be treated as read-only.
func (s *Snapshot) Wire() SnapshotWire {
	return SnapshotWire{
		Res:        s.res,
		Cand:       s.cand,
		Pairs:      s.pairs,
		NextID:     s.nextID,
		Epoch:      s.epoch,
		PrevBounds: s.prevBounds,
		PrevRes:    s.prevRes,
		Done:       s.done,
		CfgEcho:    s.cfgEcho,
		TableStats: s.tableStats,
		EdgeStats:  s.edgeStats,
		StatsEpoch: s.statsEpoch,
	}
}

// SnapshotFromWire rebuilds a Snapshot from a decoded wire view, taking
// ownership of w's maps and slices (the caller must not retain them).
// Only shape-level invariants are checked here; structural validation
// of the plan DAG is the decoder's job (plan.NodeTable), and
// configuration compatibility is re-validated by
// NewOptimizerFromSnapshot.
func SnapshotFromWire(w SnapshotWire) (*Snapshot, error) {
	if w.CfgEcho == "" {
		return nil, fmt.Errorf("core: wire snapshot without config echo")
	}
	s := &Snapshot{
		res:        w.Res,
		cand:       w.Cand,
		pairs:      w.Pairs,
		nextID:     w.NextID,
		epoch:      w.Epoch,
		prevBounds: w.PrevBounds,
		prevRes:    w.PrevRes,
		done:       w.Done,
		cfgEcho:    w.CfgEcho,
		tableStats: w.TableStats,
		edgeStats:  w.EdgeStats,
		statsEpoch: w.StatsEpoch,
	}
	// Restored optimizers binary-search the memo, so it must ascend. The
	// codec decodes it that way; anything else is put in order here.
	if !strictlyAscending(s.pairs) {
		slices.Sort(s.pairs)
		s.pairs = slices.Compact(s.pairs)
	}
	if s.res == nil {
		s.res = map[tableset.Set][]rangeindex.Entry{}
	}
	if s.cand == nil {
		s.cand = map[tableset.Set][]rangeindex.Entry{}
	}
	return s, nil
}

func strictlyAscending(pairs []uint64) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1] >= pairs[i] {
			return false
		}
	}
	return true
}

// CfgEcho returns the configuration fingerprint the snapshot was taken
// under. A persistent store compares it against ConfigFingerprint of
// the restoring service's configuration to reject stale records before
// attempting a restore.
func (s *Snapshot) CfgEcho() string { return s.cfgEcho }

// ConfigFingerprint returns the configuration fingerprint a snapshot
// taken under c would carry (the restore-compatibility key). Defaults
// are applied exactly as NewOptimizer applies them, so the result
// matches the cfgEcho of snapshots from optimizers built with c.
func ConfigFingerprint(c Config) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	return cfgFingerprint(c), nil
}
