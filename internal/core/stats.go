package core

import "fmt"

// Stats are cumulative counters over an Optimizer's lifetime. They back
// the experimental instrumentation and the amortized-complexity tests
// (Section 5.4): Lemma 5 bounds PlansGenerated, Lemma 6 bounds
// PairsCombined, Lemma 7 bounds CandidateRetrievals per plan. The lemmata
// bound work done; CoveredInvocations and PairsSkippedStale count work
// avoided — whole invocations the completed-focus ledger answered, and
// pair look-ups that found the pair already combined.
type Stats struct {
	// Invocations counts calls to Optimize.
	Invocations int
	// CoveredInvocations counts the invocations the completed-focus
	// ledger answered without draining, collecting or probing anything
	// (DESIGN.md D18).
	CoveredInvocations int
	// PlansGenerated counts enumerated plans (scans and joins), whether
	// or not pruning kept them.
	PlansGenerated int
	// PlansMaterialized counts the join plans prune copied into the
	// arena because it inserted them into a plan set; the remainder of
	// PlansGenerated was discarded without being allocated.
	PlansMaterialized int
	// PairsCombined counts sub-plan pairs passed to join enumeration.
	PairsCombined int
	// PairsSkippedStale counts pairs rejected by the IsFresh memo.
	PairsSkippedStale int
	// CandidateRetrievals counts candidates drained in phase one.
	CandidateRetrievals int
	// PruneCalls counts invocations of the pruning procedure.
	PruneCalls int
	// ResultInserts counts insertions into result plan sets.
	ResultInserts int
	// CandidateInserts counts insertions into candidate plan sets.
	CandidateInserts int
	// CandidateDiscards counts plans dropped because they were
	// approximated at the maximal resolution (no level left to defer to).
	CandidateDiscards int
	// ExactDominated counts plans discarded as globally redundant: an
	// existing result plan dominated them at factor 1 (DESIGN.md D5).
	ExactDominated int
	// DominanceChecks counts plan-against-plan comparisons in Prune: the
	// witness probes, plus the result plans of a covering order that the
	// range index's dominance probe examined inside the query box. Plans
	// whose order cannot cover the pruned plan's are passed over unread
	// and not counted (DESIGN.md D9).
	DominanceChecks int
	// WitnessHits counts the exact-dominance verdicts (a subset of
	// ExactDominated) that a recent witness settled without a range
	// query.
	WitnessHits int
	// EntriesTested and EntriesMatched sum the range indexes' retrieval
	// ledgers over every result and candidate plan set: the entries the
	// queries, dominance probes and drains compared against their
	// bounds, and the entries they retrieved. A dominance probe counts
	// only entries whose order can cover its plan. Their ratio is how far
	// retrieval is from the O(F) the paper's analysis assumes (DESIGN.md
	// D4).
	EntriesTested  int
	EntriesMatched int
}

// String renders the counters compactly for logs and reports.
func (s Stats) String() string {
	return fmt.Sprintf(
		"invocations=%d covered=%d plans=%d materialized=%d pairs=%d stale=%d candRetr=%d prune=%d resIns=%d candIns=%d discard=%d exactDom=%d domChecks=%d witnessHits=%d tested=%d matched=%d",
		s.Invocations, s.CoveredInvocations, s.PlansGenerated, s.PlansMaterialized, s.PairsCombined, s.PairsSkippedStale,
		s.CandidateRetrievals, s.PruneCalls, s.ResultInserts, s.CandidateInserts,
		s.CandidateDiscards, s.ExactDominated, s.DominanceChecks, s.WitnessHits,
		s.EntriesTested, s.EntriesMatched)
}

// Minus returns the per-interval difference s − prev, for measuring a
// single invocation out of cumulative counters.
func (s Stats) Minus(prev Stats) Stats {
	return Stats{
		Invocations:         s.Invocations - prev.Invocations,
		CoveredInvocations:  s.CoveredInvocations - prev.CoveredInvocations,
		PlansGenerated:      s.PlansGenerated - prev.PlansGenerated,
		PlansMaterialized:   s.PlansMaterialized - prev.PlansMaterialized,
		PairsCombined:       s.PairsCombined - prev.PairsCombined,
		PairsSkippedStale:   s.PairsSkippedStale - prev.PairsSkippedStale,
		CandidateRetrievals: s.CandidateRetrievals - prev.CandidateRetrievals,
		PruneCalls:          s.PruneCalls - prev.PruneCalls,
		ResultInserts:       s.ResultInserts - prev.ResultInserts,
		CandidateInserts:    s.CandidateInserts - prev.CandidateInserts,
		CandidateDiscards:   s.CandidateDiscards - prev.CandidateDiscards,
		ExactDominated:      s.ExactDominated - prev.ExactDominated,
		DominanceChecks:     s.DominanceChecks - prev.DominanceChecks,
		WitnessHits:         s.WitnessHits - prev.WitnessHits,
		EntriesTested:       s.EntriesTested - prev.EntriesTested,
		EntriesMatched:      s.EntriesMatched - prev.EntriesMatched,
	}
}
