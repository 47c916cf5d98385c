package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/pareto"
	"repro/internal/query"
	wl "repro/internal/workload"
)

// The optimizer configuration every moqod of the benchmark runs with.
// They equal moqod's flag defaults; the harness passes them explicitly so
// the checks below and the program agree by construction.
const (
	optLevels = 5
	optTarget = 1.01
	optStep   = 0.05
)

// model is the cost model moqod runs with (immutable, shared) and costDim
// the dimension of its cost vectors.
var (
	model   = costmodel.Default()
	costDim = model.Space().Dim()
)

func optConfig() core.Config {
	return core.Config{
		Model:            model,
		ResolutionLevels: optLevels,
		TargetPrecision:  optTarget,
		PrecisionStep:    optStep,
	}
}

// lexLess orders cost vectors lexicographically.
func lexLess(a, b []float64) bool {
	for d := range a {
		if d < len(b) && a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

const (
	// oracleMaxTables bounds the queries the exhaustive reference is
	// computed for; a 4-table reference costs about as much as the
	// optimization it checks (100–450 ms), so only the first
	// oracleFourTable of them per run get one. Smaller queries cost
	// milliseconds and are all covered.
	oracleMaxTables = 4
	oracleFourTable = 3
	// digestSessions is how many leading sessions (in input order) feed
	// the run's frontier_digest. A timed run completes a varying number
	// of sessions; the first digestSessions always complete.
	digestSessions = 12
)

// buildQuery reproduces, in-process, the query moqod builds for a create
// request: a TPC-H block by name, or the synthetic (tables, topology,
// seed) triple over the TPC-H catalog.
func buildQuery(spec querySpec, blocks []wl.Block) (*query.Query, error) {
	if spec.Tables > 0 {
		var tp query.Topology
		switch spec.Topology {
		case "chain":
			tp = query.Chain
		case "star":
			tp = query.Star
		case "cycle":
			tp = query.Cycle
		default:
			return nil, fmt.Errorf("topology %q", spec.Topology)
		}
		cat := catalog.TPCH(1)
		if spec.Tables > cat.NumTables() {
			return nil, fmt.Errorf("%d tables exceed the TPC-H catalog", spec.Tables)
		}
		return query.Synthetic(cat, spec.Tables, tp, rand.New(rand.NewSource(*spec.Seed)))
	}
	b, ok := wl.Find(blocks, spec.Block)
	if !ok {
		return nil, fmt.Errorf("unknown block %q", spec.Block)
	}
	return b.Query, nil
}

// reference is the exhaustive Pareto set of one query, computed by
// internal/baseline — never by the code path under test.
type reference struct {
	truth  []cost.Vector
	tables int
}

// checker holds the run's correctness state. Its methods are called from
// both client goroutines.
type checker struct {
	mu     sync.Mutex
	oracle map[string]reference // by querySpec.key
	seen   map[string][32]byte  // first unbounded at-target frontier per query
	digest map[int][32]byte     // per session index < digestSessions

	oracleChecks, reuseChecks int
}

func newChecker() *checker {
	return &checker{oracle: map[string]reference{}, seen: map[string][32]byte{}, digest: map[int][32]byte{}}
}

// addOracles computes references for the eligible queries among specs,
// in order, and reports how many it computed.
func (c *checker) addOracles(specs []querySpec, blocks []wl.Block) (int, error) {
	four, added := 0, 0
	for _, s := range specs {
		if _, ok := c.oracle[s.key()]; ok {
			continue
		}
		q, err := buildQuery(s, blocks)
		if err != nil {
			return added, err
		}
		n := q.NumTables()
		if n > oracleMaxTables || (n == oracleMaxTables && four >= oracleFourTable) {
			continue
		}
		if n == oracleMaxTables {
			four++
		}
		truth := baseline.Exhaustive(q, model, nil).Final(q)
		c.oracle[s.key()] = reference{truth: pareto.Vectors(truth), tables: n}
		added++
	}
	return added, nil
}

// frontierVectors validates the shape of a polled frontier and converts
// it: every cost vector has the model's dimension and finite,
// non-negative components.
func frontierVectors(b *pollBody) ([]cost.Vector, error) {
	out := make([]cost.Vector, len(b.Frontier))
	for i, p := range b.Frontier {
		if len(p.Cost) != costDim {
			return nil, fmt.Errorf("plan %d: cost has %d components, want %d", i, len(p.Cost), costDim)
		}
		v := cost.Vector(p.Cost)
		if !v.IsFinite() {
			return nil, fmt.Errorf("plan %d: cost %v is not finite", i, p.Cost)
		}
		out[i] = v
	}
	return out, nil
}

// multisetDigest hashes the frontier's cost vectors as a multiset: sorted
// lexicographically, then the raw float bits.
func multisetDigest(vs []cost.Vector) [32]byte {
	s := append([]cost.Vector(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return lexLess(s[i], s[j]) })
	h := sha256.New()
	var buf [8]byte
	for _, v := range s {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// atTarget checks one at-target poll body. bounds is nil on an unbounded
// regime; regime counts the bounds changes so far; prevSteps is the step
// count of the previous at-target body of the session (0 for the first).
func (c *checker) atTarget(sc sessionScript, b *pollBody, bounds cost.Vector, regime, prevSteps int) error {
	// (1) shape and consistency of the advertised state.
	if b.State != "at-target" {
		return fmt.Errorf("check state: %q", b.State)
	}
	if b.Resolution != optLevels-1 {
		return fmt.Errorf("check state: at-target at resolution %d, want %d", b.Resolution, optLevels-1)
	}
	if b.Steps < prevSteps+optLevels {
		return fmt.Errorf("check state: %d steps after %d, a regime takes at least %d", b.Steps, prevSteps, optLevels)
	}
	vs, err := frontierVectors(b)
	if err != nil {
		return fmt.Errorf("check frontier: %w", err)
	}
	for i, v := range vs {
		if !v.WithinBounds(bounds) {
			return fmt.Errorf("check frontier: plan %d cost %v exceeds bounds %v", i, v, bounds)
		}
	}
	if bounds != nil {
		return nil
	}
	if len(vs) == 0 {
		return fmt.Errorf("check frontier: empty frontier on an unbounded regime")
	}

	key := sc.Query.key()
	c.mu.Lock()
	defer c.mu.Unlock()
	// (2) oracle: the frontier must cover the exhaustive Pareto set within
	// the guarantee of the invocation series — αT^k for a single regime,
	// Γ^k once bounds have changed (core.Config.CrossRegimeAlpha).
	if ref, ok := c.oracle[key]; ok {
		alpha := optTarget
		if regime > 0 {
			alpha = optConfig().CrossRegimeAlpha()
		}
		c.oracleChecks++
		if !pareto.Covers(vs, ref.truth, math.Pow(alpha, float64(ref.tables))) {
			return fmt.Errorf("check oracle: frontier of %d plans does not cover the exhaustive set (%d plans) within %g^%d",
				len(vs), len(ref.truth), alpha, ref.tables)
		}
	}
	if regime > 0 {
		return nil
	}
	// (3) reuse equals cold: the first regime of a query seen before
	// (pre-warm, earlier session, earlier boot) ends in the same frontier.
	d := multisetDigest(vs)
	if prev, ok := c.seen[key]; ok {
		c.reuseChecks++
		if prev != d {
			return fmt.Errorf("check reuse: frontier of %s differs from its first at-target frontier (provenance %q)", key, b.Provenance)
		}
	} else {
		c.seen[key] = d
	}
	// (4) the run digest.
	if sc.Index >= 0 && sc.Index < digestSessions {
		c.digest[sc.Index] = d
	}
	return nil
}

// frontierDigest folds the per-session digests in input order.
func (c *checker) frontierDigest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := sha256.New()
	for i := 0; i < digestSessions; i++ {
		if d, ok := c.digest[i]; ok {
			h.Write(d[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
