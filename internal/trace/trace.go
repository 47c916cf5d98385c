// Package trace records one optimization session's lifecycle as a
// bounded ring of span records: admission, cache outcome, isomorphic
// remap, each scheduler queue wait and refinement-quantum batch, the
// first non-empty frontier, regime convergence, snapshot export and
// the terminal transition. It is the per-request half of the service's
// observability layer (internal/metrics holds the fleet-wide
// aggregates): a histogram says *that* sessions are slow, a trace says
// *where this one* spent its time.
//
// The constraints mirror the step-path discipline (DESIGN.md D9/D13):
// appending a span is two index stores into a fixed array — zero
// allocation, no lock of its own (the service serializes appends and
// snapshots under the session's existing mutex). Memory per session is
// fixed at ringCap spans; a long-running session wraps, keeping the
// most recent spans and counting the dropped prefix. Finished
// sessions' traces are sampled into a bounded Archive whose slots
// recycle their span storage, so steady-state archiving does not grow
// the heap.
package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// Kind labels one span of a session's lifecycle.
type Kind uint8

const (
	// KindAdmit is session creation; Dur covers the whole Create call
	// (admission checks, cache lookup, remap or cold optimizer build).
	KindAdmit Kind = iota
	// KindCacheExact, KindCacheIso and KindCacheMiss record the
	// warm-start cache outcome at creation.
	KindCacheExact
	KindCacheIso
	KindCacheMiss
	// KindRemap is the isomorphic snapshot rewrite; Dur is the remap
	// wall time (session-creation path, never the refinement path).
	KindRemap
	// KindQueueWait is the interval between a (re-)enqueue and the
	// first refinement step of the pop that serviced it.
	KindQueueWait
	// KindSteps is one scheduler quantum batch: N consecutive
	// refinement steps; Dur spans the first step's start to the last
	// step's end (its start plus the optimizer time the session
	// recorded for it, riding the scheduler's existing timestamps).
	KindSteps
	// KindFirstFrontier marks the step that produced the first
	// non-empty frontier; Dur is the latency since creation.
	KindFirstFrontier
	// KindConverged marks the current bounds regime reaching target
	// precision, stamped at the end of its last step (where that
	// step's steps span ends); N is the total step count so far.
	KindConverged
	// KindExport is the snapshot export to the warm-start cache (and,
	// write-through, the store queue); Dur is the export wall time.
	KindExport
	// KindBounds is a client bounds change (a new regime; resolution
	// resets per the paper's regime rule).
	KindBounds
	// KindSelected, KindClosed and KindExpired are the terminal
	// transitions.
	KindSelected
	KindClosed
	KindExpired
	// KindFailed marks a session killed by a recovered panic or a
	// poisoned warm start (the error text travels in the archived trace's
	// session record, not the span).
	KindFailed
	// KindTimedOut marks a session reclaimed at its wall-clock deadline.
	KindTimedOut
	// KindCheckpoint marks a mid-refinement snapshot export forced by a
	// drain: the session's partial plan state was persisted so a
	// restarted (or bootstrapped) node can resume the refinement warm.
	KindCheckpoint
	// KindDrift records a statistics-drift resolution on the creation
	// path: N is the drift class (core.DriftClass numeric value), Dur is
	// the re-cost latency (0 when the entry was quarantined).
	KindDrift
	// KindCurve is one convergence-telemetry sample taken at a step
	// boundary: N packs the resolution and frontier size (PackCurveN)
	// and Dur carries the frontier's best cost scalarization as raw
	// float64 bits (PackCurveScalar) — the Span stays a 32-byte POD
	// and the step path stays allocation-free.
	KindCurve
)

var kindNames = [...]string{
	KindAdmit:         "admit",
	KindCacheExact:    "cache-exact",
	KindCacheIso:      "cache-iso",
	KindCacheMiss:     "cache-miss",
	KindRemap:         "remap",
	KindQueueWait:     "queue-wait",
	KindSteps:         "steps",
	KindFirstFrontier: "first-frontier",
	KindConverged:     "converged",
	KindExport:        "export",
	KindBounds:        "bounds",
	KindSelected:      "selected",
	KindClosed:        "closed",
	KindExpired:       "expired",
	KindFailed:        "failed",
	KindTimedOut:      "timed-out",
	KindCheckpoint:    "checkpoint",
	KindDrift:         "drift",
	KindCurve:         "curve",
}

// String returns the span kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded lifecycle event. At is the offset from the
// trace's start; Dur and N are kind-specific (see the Kind constants).
type Span struct {
	Kind Kind
	At   time.Duration
	Dur  time.Duration
	N    int64
}

// PackCurveN packs a curve sample's resolution and frontier size into
// a Span's N field (resolution in the low 16 bits, clamped).
func PackCurveN(resolution, frontier int) int64 {
	if resolution < 0 {
		resolution = 0
	}
	if resolution > 0xffff {
		resolution = 0xffff
	}
	if frontier < 0 {
		frontier = 0
	}
	return int64(frontier)<<16 | int64(resolution)
}

// UnpackCurveN reverses PackCurveN.
func UnpackCurveN(n int64) (resolution, frontier int) {
	return int(n & 0xffff), int(n >> 16)
}

// PackCurveScalar reinterprets a float64 scalarization as a Span Dur.
func PackCurveScalar(v float64) time.Duration {
	return time.Duration(math.Float64bits(v))
}

// UnpackCurveScalar reverses PackCurveScalar.
func UnpackCurveScalar(d time.Duration) float64 {
	return math.Float64frombits(uint64(d))
}

// ringCap bounds a trace's memory: the most recent ringCap spans are
// kept, older ones are dropped (counted, not silently). 64 spans cover
// a typical session's full lifecycle several times over — a session
// converging in B batches records ~2B+6 spans — while pinning the
// per-session overhead at 64 × 32 B = 2 KiB, far below the optimizer
// state the session already holds.
const ringCap = 64

// Trace is one session's span ring. It performs no synchronization of
// its own: the owner (the service) must serialize Append and snapshot
// calls — in practice both happen under the session's mutex, so
// tracing adds no lock the step path did not already take.
type Trace struct {
	id    string
	start time.Time
	prov  string // plan provenance: cold / exact / iso / recost / resume / bootstrap
	n     int    // total appended; ring occupancy = min(n, ringCap)
	spans [ringCap]Span
}

// New allocates a trace for one session. The 2 KiB ring is a single
// allocation on the session-creation path (which already builds the
// optimizer); nothing later allocates.
func New(id string, start time.Time) *Trace {
	return &Trace{id: id, start: start}
}

// pool recycles trace rings across sessions: at warm-start throughput
// (tens of thousands of sessions/sec) allocating and zeroing a fresh
// 2 KiB ring per session showed up as a measurable GC tax, and the
// ring's contents never outlive its session (the archive copies).
var pool = sync.Pool{New: func() any { return new(Trace) }}

// Get returns a reset trace from the package pool. Stale spans from a
// previous owner are not zeroed — n bounds every read.
func Get(id string, start time.Time) *Trace {
	t := pool.Get().(*Trace)
	t.id, t.start, t.n, t.prov = id, start, 0, ""
	return t
}

// Put recycles a trace. The caller must drop every reference first —
// in the service, m.trace is cleared under the session mutex before
// the ring is released, so late appenders see nil, not a recycled
// ring.
func Put(t *Trace) {
	if t != nil {
		pool.Put(t)
	}
}

// ID returns the owning session's ID.
func (t *Trace) ID() string { return t.id }

// SetProvenance records where the session's initial plan state came
// from (cold / exact / iso / recost / resume / bootstrap). Set once on
// the creation path; the caller serializes like Append.
func (t *Trace) SetProvenance(p string) { t.prov = p }

// Provenance returns the recorded plan provenance ("" if unset).
func (t *Trace) Provenance() string { return t.prov }

// Start returns the trace epoch (session creation time).
func (t *Trace) Start() time.Time { return t.start }

// Len returns the total number of spans appended (including any that
// have been overwritten by ring wrap-around).
func (t *Trace) Len() int { return t.n }

// Wrapped reports whether wrap-around has dropped spans — readers that
// need a complete prefix (the steps-to-epsilon scan) check this.
func (t *Trace) Wrapped() bool { return t.n > ringCap }

// Append records a span at wall-clock time at. Zero allocations; the
// caller serializes (see Trace).
func (t *Trace) Append(k Kind, at time.Time, dur time.Duration, n int64) {
	t.spans[t.n%ringCap] = Span{Kind: k, At: at.Sub(t.start), Dur: dur, N: n}
	t.n++
}

// AppendAt is Append with a precomputed offset, for callers that
// already hold the offset from the trace start (avoiding a redundant
// wall-clock read on the step path).
func (t *Trace) AppendAt(k Kind, at, dur time.Duration, n int64) {
	t.spans[t.n%ringCap] = Span{Kind: k, At: at, Dur: dur, N: n}
	t.n++
}

// SpanData is one span rendered for JSON (and the slow-session log).
// Curve spans are decoded on the way out: the packed N / bit-cast Dur
// become Res, Frontier and Scalar instead of raw integers.
type SpanData struct {
	Kind     string  `json:"kind"`
	AtNS     int64   `json:"at_ns"`
	DurNS    int64   `json:"dur_ns,omitempty"`
	N        int64   `json:"n,omitempty"`
	Res      int     `json:"res,omitempty"`
	Frontier int     `json:"frontier,omitempty"`
	Scalar   float64 `json:"scalar,omitempty"`
}

// Data is a detached copy of a trace, safe to hold after the session
// is gone and JSON-ready for the trace endpoint.
type Data struct {
	ID         string    `json:"id"`
	Start      time.Time `json:"start"`
	Provenance string    `json:"provenance,omitempty"`
	// Dropped counts spans lost to ring wrap-around (the Spans slice
	// holds the most recent ringCap of Dropped+len(Spans) total).
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// CopyInto fills d with the trace's current state, oldest span first,
// reusing d.Spans' capacity (the Archive's slot-recycling path). The
// caller serializes with appends.
func (t *Trace) CopyInto(d *Data) {
	d.ID = t.id
	d.Start = t.start
	d.Provenance = t.prov
	occ := t.n
	first := 0
	if occ > ringCap {
		occ = ringCap
		first = t.n % ringCap
	}
	d.Dropped = t.n - occ
	d.Spans = d.Spans[:0]
	for i := 0; i < occ; i++ {
		s := t.spans[(first+i)%ringCap]
		sd := SpanData{
			Kind:  s.Kind.String(),
			AtNS:  int64(s.At),
			DurNS: int64(s.Dur),
			N:     s.N,
		}
		if s.Kind == KindCurve {
			sd.DurNS, sd.N = 0, 0
			sd.Res, sd.Frontier = UnpackCurveN(s.N)
			// Same defensive guard as BuildCurve: a non-finite
			// scalarization in the ring must not reach json.Encode,
			// which errors on ±Inf/NaN mid-response.
			if sc := UnpackCurveScalar(s.Dur); !math.IsInf(sc, 0) && !math.IsNaN(sc) {
				sd.Scalar = sc
			}
		}
		d.Spans = append(d.Spans, sd)
	}
}

// Scan calls f on each retained span, oldest first, stopping early if
// f returns false. Zero-allocation (f permitting); the caller
// serializes with appends like every other read.
func (t *Trace) Scan(f func(Span) bool) {
	occ := t.n
	first := 0
	if occ > ringCap {
		occ = ringCap
		first = t.n % ringCap
	}
	for i := 0; i < occ; i++ {
		if !f(t.spans[(first+i)%ringCap]) {
			return
		}
	}
}

// Snapshot returns a freshly allocated detached copy.
func (t *Trace) Snapshot() Data {
	var d Data
	t.CopyInto(&d)
	return d
}

// Format renders a compact one-line-per-span description — the
// slow-session log's payload.
func (d Data) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "session %s (%d spans", d.ID, len(d.Spans))
	if d.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", d.Dropped)
	}
	b.WriteString(")")
	for _, s := range d.Spans {
		fmt.Fprintf(&b, "\n  +%-12v %-14s", time.Duration(s.AtNS).Round(time.Microsecond), s.Kind)
		if s.DurNS > 0 {
			fmt.Fprintf(&b, " dur=%v", time.Duration(s.DurNS).Round(time.Microsecond))
		}
		if s.N != 0 {
			fmt.Fprintf(&b, " n=%d", s.N)
		}
	}
	return b.String()
}

// Archive keeps the most recent completed-session traces in a bounded
// ring — the finished-session analogue of the service's step-gap rings.
// Add copies the trace into the next slot, reusing that slot's span
// storage, so a hot finish path settles into zero steady-state
// allocation. Safe for concurrent use.
type Archive struct {
	mu   sync.Mutex
	ring []Data
	next int
	n    int
}

// NewArchive returns an archive keeping the last capacity traces
// (capacity < 1 defaults to 64).
func NewArchive(capacity int) *Archive {
	if capacity < 1 {
		capacity = 64
	}
	return &Archive{ring: make([]Data, capacity)}
}

// Add samples a finished session's trace into the ring. The trace must
// be quiescent (its session is terminal; no appends race the copy).
func (a *Archive) Add(t *Trace) {
	if t == nil {
		return
	}
	a.mu.Lock()
	t.CopyInto(&a.ring[a.next])
	a.next = (a.next + 1) % len(a.ring)
	a.n++
	a.mu.Unlock()
}

// Find returns a detached copy of the most recently archived trace for
// the session ID.
func (a *Archive) Find(id string) (Data, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	occ := a.n
	if occ > len(a.ring) {
		occ = len(a.ring)
	}
	// Scan newest → oldest so a reused session ID resolves to its
	// latest trace.
	for i := 1; i <= occ; i++ {
		slot := ((a.next-i)%len(a.ring) + len(a.ring)) % len(a.ring)
		if a.ring[slot].ID == id {
			return cloneData(a.ring[slot]), true
		}
	}
	return Data{}, false
}

// Recent returns detached copies of up to max archived traces, newest
// first (max <= 0 means all).
func (a *Archive) Recent(max int) []Data {
	a.mu.Lock()
	defer a.mu.Unlock()
	occ := a.n
	if occ > len(a.ring) {
		occ = len(a.ring)
	}
	if max > 0 && occ > max {
		occ = max
	}
	out := make([]Data, 0, occ)
	for i := 1; i <= occ; i++ {
		slot := ((a.next-i)%len(a.ring) + len(a.ring)) % len(a.ring)
		out = append(out, cloneData(a.ring[slot]))
	}
	return out
}

// cloneData deep-copies a ring slot (whose Spans backing array will be
// overwritten by future Adds).
func cloneData(d Data) Data {
	out := d
	out.Spans = make([]SpanData, len(d.Spans))
	copy(out.Spans, d.Spans)
	return out
}
