package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/trace"
)

// provenance says how a session's plan state was derived (DESIGN.md
// D21). Its String is what Status.Provenance, the trace and the
// session-created event report.
type provenance uint8

const (
	provCold   provenance = iota // built from scratch
	provExact                    // restored verbatim from the query's own entry
	provIso                      // an isomorphic query's entry, remapped onto q's labels
	provRecost                   // a pre-drift entry re-costed under the live statistics and trusted
	provResume                   // re-costed, then refinement resumed with the pair memo dropped
)

var provenanceNames = [...]string{"cold", "exact", "iso", "recost", "resume"}

func (p provenance) String() string { return provenanceNames[p] }

// origin says where a cache entry's snapshot came from.
type origin uint8

const (
	originLive      origin = iota // exported by a session of this process
	originReplay                  // read from the local store
	originBootstrap               // read from a record pulled from a peer's store
)

// provenanceLabels is the provenance as reported, by provenance and the
// source entry's origin: when the entry came off disk its origin rides
// along as a suffix ("exact-replay", "iso-bootstrap"), so a poll or
// trace distinguishes state minted this process from state inherited
// across a restart or pulled from a peer.
var provenanceLabels = func() (l [len(provenanceNames)][originBootstrap + 1]string) {
	for p, name := range provenanceNames {
		l[p] = [...]string{originLive: name, originReplay: name + "-replay", originBootstrap: name + "-bootstrap"}
	}
	return l
}()

// driftOutcome is how statistics drift resolved at a create; its String
// is Status.Drift.
type driftOutcome uint8

const (
	driftNone        driftOutcome = iota
	driftRecosted                 // small drift: cached plans re-costed and trusted
	driftResumed                  // large drift: refinement resumed over re-costed state
	driftQuarantined              // incompatible drift or failed re-cost: the session cold-started
)

var driftOutcomeNames = [...]string{"", "recosted", "resumed", "quarantined"}

func (d driftOutcome) String() string { return driftOutcomeNames[d] }

// driftOf is the drift outcome a warm start of each provenance reports.
var driftOf = [...]driftOutcome{provRecost: driftRecosted, provResume: driftResumed}

// cacheSpan is the cache-outcome span each provenance seeds its trace
// with. The drift provenances have none: their stale-tier hit is the
// drift span.
var cacheSpan = [...]trace.Kind{provCold: trace.KindCacheMiss, provExact: trace.KindCacheExact, provIso: trace.KindCacheIso}

// start is the resolver's whole answer: the session, how its plan state
// was derived, and what deriving it cost. Status, the trace's seed and the
// counters are all read off it, once, by Create.
type start struct {
	sess   *session.Session
	prov   provenance
	src    query.Keys // the entry the state was derived from (zero when cold)
	origin origin     // where src's snapshot came from
	drift  driftOutcome
	class  core.DriftClass // of the stale entry, when one was classified
	// remap and recost are the creation-path rewrites' wall times.
	remap, recost time.Duration
}

// label is the provenance as reported (provenanceLabels).
func (st *start) label() string { return provenanceLabels[st.prov][st.origin] }

// seed writes the creation-path spans retroactively — the session (and
// its ID) did not exist while they happened.
func (st *start) seed(tr *trace.Trace) {
	if int(st.prov) < len(cacheSpan) {
		tr.AppendAt(cacheSpan[st.prov], 0, 0, 0)
	}
	if st.remap > 0 {
		tr.AppendAt(trace.KindRemap, 0, st.remap, 0)
	}
	if st.drift != driftNone {
		tr.AppendAt(trace.KindDrift, 0, st.recost, int64(st.class))
	}
}

// resolve walks the warm-start ladder for q (DESIGN.md D21): the exact
// tier, then the canonical tier, then — both having missed — the
// structural tier, each asked of the cache and, on its miss, of the
// store; then a cold build. A rung answers hit (a snapshot ready to
// restore under q), miss (nil) or poison; whichever hits hands its
// snapshot to the one restore below, whatever a rung or the restore
// finds to be poison leaves through the one quarantine (a record that
// failed its read-side checks has left through it already), and the
// create itself never fails for a bad cache entry.
func (s *Service) resolve(q *query.Query, k query.Keys) (start, error) {
	var st start
	var err error
	if s.cache != nil {
		h, found := s.cache.Lookup(k, s.cold)
		stale := h.Tier == query.TierStruct
		var snap *core.Snapshot
		var prov provenance
		poison := false
		switch {
		case !found || h.Snap == nil:
			// Nothing, or a store record that could not be used this time:
			// a cold start.
		case stale:
			snap, prov, poison = s.staleRung(q, h, &st)
		case h.Tier == query.TierExact:
			snap, prov = h.Snap, provExact
		default:
			snap, prov = s.isoRung(k, h, &st), provIso
		}
		if snap != nil {
			opt, rerr := restoreFromSnapshot(q, s.cfg.Opt, snap)
			if rerr == nil {
				if st.sess, err = session.NewWithOptimizer(opt, nil); err != nil {
					return st, err
				}
				st.prov, st.drift, st.src, st.origin = prov, driftOf[prov], h.Src, h.Origin
				if prov == provRecost {
					// Small drift: the re-costed plan sets are exactly what
					// this session's convergence would re-export. Admit them
					// under q's own keys now — the next identical query hits
					// the exact tier — and skip the session's own export.
					s.admit(k, snap, false)
				}
				return st, nil
			}
			poison = true
		}
		if poison {
			// Evict from every cache tier, supersede on disk (D14). The next
			// convergence re-exports a fresh snapshot, resetting the lineage.
			s.quarantine(h.Src, false)
			if stale {
				// The stale entry was classified and then buried: that is a
				// drift outcome.
				st.drift = driftQuarantined
			}
		}
	}
	st.sess, err = session.New(q, s.cfg.Opt, nil)
	return st, err
}

// restoreFromSnapshot builds an optimizer from a cached snapshot. The
// entry passed scan-time CRC and config checks, so a restore that still
// fails — or panics, on a corrupt-but-CRC-valid record: converted to an
// error here — is poison for resolve to quarantine instead of crashing
// (D14).
func restoreFromSnapshot(q *query.Query, cfg core.Config, snap *core.Snapshot) (opt *core.Optimizer, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: snapshot restore panicked: %v", r)
		}
	}()
	return core.NewOptimizerFromSnapshot(q, cfg, snap)
}

// isoRung is the cross-shape hit: rewrite the cached snapshot from its
// source labeling onto q's. Failures (which would take a digest
// collision) just degrade to a cold start.
func (s *Service) isoRung(k query.Keys, h Hit, st *start) *core.Snapshot {
	perm, err := query.ComposeRemap(h.Src.Perm, k.Perm)
	if err != nil {
		return nil
	}
	t0 := time.Now()
	remapped, err := h.Snap.Remap(perm)
	st.remap = time.Since(t0)
	s.obs.Remap.ObserveDuration(st.remap)
	if err != nil {
		return nil
	}
	return remapped
}

// staleRung runs when both real tiers missed but a snapshot with q's
// exact structure is cached under different statistics: the stats
// drifted between its export and this create. Classify the drift against
// the snapshot's recorded values and re-cost, resume or quarantine
// accordingly (DESIGN.md D15) — never serve plan state costed under
// superseded statistics as-is.
func (s *Service) staleRung(q *query.Query, h Hit, st *start) (_ *core.Snapshot, _ provenance, poison bool) {
	class, mag := h.Snap.ClassifyDrift(q, s.cfg.DriftThreshold)
	st.class = class
	s.obs.DriftMagnitude.Observe(int64(mag * 1000))
	if class == core.DriftIncompatible {
		// The table set, topology, index availability or sampling offers
		// changed — the cached alternatives no longer enumerate q's
		// search space in either direction.
		return nil, provCold, true
	}
	t0 := time.Now()
	recosted, err := h.Snap.Recost(q, s.cfg.Opt)
	st.recost = time.Since(t0)
	s.obs.Recost.ObserveDuration(st.recost)
	if err != nil {
		// Classification said value-only drift but re-costing still
		// failed (e.g. a corrupt-but-CRC-valid record): the entry is
		// poison.
		return nil, provCold, true
	}
	recosted.SetStatsEpoch(s.statsEpoch())
	if class != core.DriftLarge {
		return recosted, provRecost, false
	}
	// The pruning decisions baked into the cached sets happened under the
	// old statistics; drop the pair memo so refinement regenerates every
	// alternative and re-prunes it against the re-costed context.
	recosted.DropPairs()
	return recosted, provResume, false
}
