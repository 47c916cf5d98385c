package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// querySpec is the body of one POST /sessions request — the only shape
// in which a generated input ever reaches moqod.
type querySpec struct {
	Block    string `json:"block,omitempty"`
	Tables   int    `json:"tables,omitempty"`
	Topology string `json:"topology,omitempty"`
	Seed     *int64 `json:"seed,omitempty"`
}

// key is the spec's canonical request body; it doubles as the identity
// of the query for the reuse-equals-cold check.
func (q querySpec) key() string {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain struct of strings and ints
	}
	return string(b)
}

func synthetic(tables int, topology string, seed int64) querySpec {
	return querySpec{Tables: tables, Topology: topology, Seed: &seed}
}

// sessionScript is one simulated user: which query they optimize and
// how they interact with the frontier.
type sessionScript struct {
	Index int
	Query querySpec
	// Drags is the number of bounds drags after the first at-target
	// frontier; each starts one regime.
	Drags int
	// Interactive makes the user drag as soon as the first frontier
	// appears instead of waiting for the target: interactiveRegimes
	// regimes, tight first, relaxed step by step, unbounded last.
	Interactive bool
	// Select ends the session with POST …/select (index 0, guarded by the
	// polled step count); otherwise it is abandoned with DELETE.
	Select bool
}

// regimes is the number of bounds drags the script performs.
func (s sessionScript) regimes() int {
	if s.Interactive {
		return interactiveRegimes
	}
	return s.Drags
}

const (
	// interactiveRegimes is the number of bounds regimes of one
	// interactive_drag session.
	interactiveRegimes = 8
	// tightScale and relaxScale shape the interactive drag series: the
	// first bounds are tightScale × the median frontier plan's cost, every
	// later regime but the last multiplies them by relaxScale, the last
	// removes them.
	tightScale = 0.7
	relaxScale = 1.6
	// dragScale is the single drag of the non-interactive scripts: bounds
	// at dragScale × the median plan of the converged frontier.
	dragScale = 2.0
)

var topologies = []string{"chain", "star", "cycle"}

// smallBlocks are the TPC-H join blocks of at most five tables. The four
// larger ones (Q5, Q7, Q8, Q9) take 2–10 s each to converge cold on the
// reference host, which a set-up repeated three times per run cannot pay.
var smallBlocks = []string{
	"Q2", "Q2-sub", "Q3", "Q4", "Q10", "Q11", "Q11-sub", "Q12", "Q13", "Q14",
	"Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q20-sub", "Q21", "Q22",
}

// warmSynthetic are the fixed synthetic shapes of the warm pool: three
// per topology, four tables each. Their seeds are constants of the
// benchmark, not derived from -seed, so the pool's content is the same
// on every run and only the order in which it is visited varies.
func warmSynthetic() []querySpec {
	var out []querySpec
	for i := 0; i < 9; i++ {
		out = append(out, synthetic(4, topologies[i%3], int64(9001+i)))
	}
	return out
}

// workload is one frozen traffic mix. Script must be a pure function of
// (seed, i): the i-th session of a run is the same whenever the seed is.
type workload struct {
	Name string
	Why  string
	// CacheDir runs moqod with -cache-dir on a directory that survives
	// the workload's restarts.
	CacheDir bool
	// NoCache runs moqod with -cache -1. A never-seen synthetic query is
	// only new in its statistics: moqod builds every (tables, topology)
	// request over the same leading catalog tables, so with the cache on
	// all but the first query of a shape hit its structural (drift) tier
	// and resume from re-costed state (provenance "resume", 79 of 82
	// sessions at 5df6f1d). The from-scratch path these workloads exist to
	// measure is reachable over HTTP only with the cache off.
	NoCache bool
	// Prewarm lists the queries converged once during set-up.
	Prewarm func() []querySpec
	// CycleSessions, when positive, restarts moqod after every that many
	// sessions (SIGTERM, wait for exit, boot on the same directory).
	CycleSessions int
	Script        func(seed int64, i int) sessionScript
	// Tail freezes the percentile each tail metric is reported at:
	// tailPercentile of the sample count a 20 s run gives on the reference
	// host, or the next candidate below it where that one's spread across
	// ten seeds exceeded a third of the metric's bound (README.md).
	// Freezing keeps a metric comparable when a change moves the sample
	// count across a band.
	Tail tails
}

type tails struct{ FirstFrontier, Target, Regime, Poll int }

// freshSeed spreads the never-seen query seeds of different -seed values
// apart, so two runs with different seeds share no query.
func freshSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

var workloads = []workload{
	{
		Name:    "cold_distinct",
		Why:     "never-seen 4-table chain and star queries on a cache-less node: every session refines from scratch, so core/costmodel/rangeindex/cost do the work",
		NoCache: true,
		Prewarm: func() []querySpec { return nil },
		Script: func(seed int64, i int) sessionScript {
			return sessionScript{Index: i, Query: synthetic(4, topologies[i%2], freshSeed(seed, i)), Drags: 1, Select: i%5 != 4}
		},
		Tail: tails{FirstFrontier: 90, Target: 90, Regime: 90, Poll: 99},
	},
	{
		Name:    "warm_repeat",
		Why:     "a converged pool of 28 shapes revisited in seeded order: every create is an exact-tier hit, so service/api/query do the work and core only restores",
		Prewarm: warmPool,
		Script: func(seed int64, i int) sessionScript {
			pool := warmPool()
			round, pos := i/len(pool), i%len(pool)
			perm := rand.New(rand.NewSource(seed*7919 + int64(round))).Perm(len(pool))
			s := sessionScript{Index: i, Query: pool[perm[pos]], Select: i%5 != 4}
			if i%4 == 3 {
				s.Drags = 1
			}
			return s
		},
		Tail: tails{FirstFrontier: 99, Target: 99, Regime: 90, Poll: 99},
	},
	{
		Name:    "interactive_drag",
		Why:     "the same cold starts dragged through 8 bounds regimes from the first frontier on: incremental invocations (delta sets, candidate promotion) instead of from-scratch refinement",
		NoCache: true,
		Prewarm: func() []querySpec { return nil },
		Script: func(seed int64, i int) sessionScript {
			return sessionScript{Index: i, Query: synthetic(4, topologies[i%2], freshSeed(seed, i)), Interactive: true, Select: i%5 != 4}
		},
		// Target sits one candidate below the rule's p90: the first target
		// of an interactive session includes its first drag, which either
		// runs at once or queues behind the other client's cold step, and
		// p90 lands on the edge between the two (15 % spread at n≈145).
		Tail: tails{FirstFrontier: 90, Target: 70, Regime: 99, Poll: 99},
	},
	{
		Name:          "restart_cycle",
		Why:           "boot on a persisted store, replay it, serve the small TPC-H blocks twice plus two new 3-table queries that write through, SIGTERM: store and snapcodec work on both the read and the write side",
		CacheDir:      true,
		Prewarm:       blockPool,
		CycleSessions: 2*len(smallBlocks) + 2,
		Script: func(seed int64, i int) sessionScript {
			n := 2*len(smallBlocks) + 2
			cycle, pos := i/n, i%n
			s := sessionScript{Index: i, Select: i%5 != 4}
			// The two never-seen queries sit at fixed positions of the
			// cycle; the block visits around them are shuffled per cycle.
			switch pos {
			case n / 3:
				s.Query = synthetic(3, topologies[(2*cycle)%3], freshSeed(seed, 2*cycle))
			case 2 * n / 3:
				s.Query = synthetic(3, topologies[(2*cycle+1)%3], freshSeed(seed, 2*cycle+1))
			default:
				k := pos
				if pos > n/3 {
					k--
				}
				if pos > 2*n/3 {
					k--
				}
				perm := rand.New(rand.NewSource(seed*7919 + int64(cycle))).Perm(2 * len(smallBlocks))
				s.Query = querySpec{Block: smallBlocks[perm[k]%len(smallBlocks)]}
			}
			if i%4 == 3 {
				s.Drags = 1
			}
			return s
		},
		Tail: tails{FirstFrontier: 99, Target: 99, Regime: 90, Poll: 99},
	},
}

func blockPool() []querySpec {
	out := make([]querySpec, len(smallBlocks))
	for i, b := range smallBlocks {
		out[i] = querySpec{Block: b}
	}
	return out
}

func warmPool() []querySpec { return append(blockPool(), warmSynthetic()...) }

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// requestList renders the first n session scripts of a workload as the
// exact bytes the run would send and do — the seed-determinism witness.
func requestList(w workload, seed int64, n int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		s := w.Script(seed, i)
		fmt.Fprintf(&b, "%d POST /sessions %s regimes=%d select=%v\n", i, s.Query.key(), s.regimes(), s.Select)
	}
	return []byte(b.String())
}
