// Package eventlog is the daemon's structured event channel: leveled,
// rate-limited JSON events held in a bounded in-memory ring and served
// at GET /debug/events. It replaces unstructured stdlib logging across
// the daemon so that fleet tooling can consume machine-readable events
// carrying node, session, and fingerprint identity, while operators
// keep a plain-text mirror on stderr.
//
// The package is dependency-free (stdlib only) and deliberately cheap:
// one mutex around a fixed ring, a token-bucket rate limiter with
// per-level drop counters, and no emission from the refinement step
// path at all (see DESIGN.md D17).
package eventlog

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders event severity. Debug events are suppressed unless the
// log was built with LevelDebug; everything at or above the configured
// level enters the ring (subject to rate limiting).
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

func (l Level) String() string {
	if l < LevelDebug || l > LevelError {
		return "unknown"
	}
	return levelNames[l]
}

// ParseLevel maps a level name (as served in query parameters) back to
// a Level. Unknown names report ok=false.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return LevelInfo, false
}

// Field is one structured key/value pair on an event. Values are
// strings; callers format numbers with the F* helpers so the emission
// sites stay one-liners.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// F builds a string field.
func F(k, v string) Field { return Field{Key: k, Value: v} }

// Fint builds an integer field.
func Fint(k string, v int64) Field { return Field{Key: k, Value: strconv.FormatInt(v, 10)} }

// Fdur builds a duration field.
func Fdur(k string, d time.Duration) Field { return Field{Key: k, Value: d.String()} }

// Ferr builds an error field; nil errors render as "".
func Ferr(err error) Field {
	if err == nil {
		return Field{Key: "err", Value: ""}
	}
	return Field{Key: "err", Value: err.Error()}
}

// Event is one structured log record. Session, FP, and Phase are
// optional identity stamps — empty when the event is not tied to a
// session or lifecycle phase.
type Event struct {
	Seq     uint64  `json:"seq"`
	TimeNS  int64   `json:"time_ns"`
	Level   string  `json:"level"`
	Sub     string  `json:"sub"`
	Msg     string  `json:"msg"`
	Node    string  `json:"node,omitempty"`
	Session string  `json:"session,omitempty"`
	FP      string  `json:"fp,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	Fields  []Field `json:"fields,omitempty"`
}

// Options configures a Log. The zero value is usable: 256-event ring,
// Info level, 64-event burst refilled at 32 events/second, no mirror.
type Options struct {
	// Capacity bounds the ring; older events are overwritten. Minimum 1.
	Capacity int
	// Level is the minimum severity admitted to the ring.
	Level Level
	// Node stamps every event with this node's identity.
	Node string
	// Burst and PerSecond shape the token bucket. Error events bypass
	// the limiter (they are rare and always worth keeping).
	Burst     int
	PerSecond int
	// Mirror, when non-nil, receives a plain-text rendering of every
	// admitted event (one line each) — the operator-facing stderr view.
	Mirror io.Writer
}

// Log is a bounded, rate-limited structured event ring. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// packages can hold an optional *Log without nil checks at every site.
type Log struct {
	mu     sync.Mutex
	ring   []Event
	next   int // ring index of the next write
	n      int // events currently in the ring (≤ len(ring))
	seq    uint64
	level  Level
	node   string
	mirror io.Writer

	// Token bucket: tokens are event credits; refill is computed lazily
	// from the elapsed time since lastRefill.
	tokens     float64
	burst      float64
	perSec     float64
	lastRefill time.Time

	drops [4]atomic.Uint64 // per-level dropped-event counters
}

// New builds a Log from opts, applying the documented defaults.
func New(opts Options) *Log {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.Burst <= 0 {
		opts.Burst = 64
	}
	if opts.PerSecond <= 0 {
		opts.PerSecond = 32
	}
	return &Log{
		ring:       make([]Event, opts.Capacity),
		level:      opts.Level,
		node:       opts.Node,
		mirror:     opts.Mirror,
		tokens:     float64(opts.Burst),
		burst:      float64(opts.Burst),
		perSec:     float64(opts.PerSecond),
		lastRefill: time.Now(),
	}
}

// Emit records one event. Debug/Info/Warn events below the configured
// level are discarded; events beyond the rate limit are counted in the
// per-level drop counters instead of entering the ring. Errors bypass
// the limiter.
func (l *Log) Emit(lv Level, sub, msg string, fields ...Field) {
	l.emit(lv, sub, msg, "", "", "", fields)
}

// EmitSession records an event stamped with session identity: session
// ID, plan fingerprint, and the session's lifecycle phase or state.
func (l *Log) EmitSession(lv Level, sub, msg, session, fp, phase string, fields ...Field) {
	l.emit(lv, sub, msg, session, fp, phase, fields)
}

func (l *Log) emit(lv Level, sub, msg, session, fp, phase string, fields []Field) {
	if l == nil {
		return
	}
	if lv < LevelDebug {
		lv = LevelDebug
	} else if lv > LevelError {
		lv = LevelError
	}
	now := time.Now()

	l.mu.Lock()
	if lv < l.level {
		l.mu.Unlock()
		return
	}
	if lv < LevelError && !l.takeTokenLocked(now) {
		l.mu.Unlock()
		l.drops[lv].Add(1)
		return
	}
	l.seq++
	ev := Event{
		Seq:     l.seq,
		TimeNS:  now.UnixNano(),
		Level:   lv.String(),
		Sub:     sub,
		Msg:     msg,
		Node:    l.node,
		Session: session,
		FP:      fp,
		Phase:   phase,
		Fields:  fields,
	}
	l.ring[l.next] = ev
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	mirror := l.mirror
	l.mu.Unlock()

	if mirror != nil {
		writeMirror(mirror, &ev)
	}
}

// takeTokenLocked refills the bucket from elapsed time and consumes one
// token if available. Callers hold mu.
func (l *Log) takeTokenLocked(now time.Time) bool {
	elapsed := now.Sub(l.lastRefill).Seconds()
	if elapsed > 0 {
		l.tokens += elapsed * l.perSec
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.lastRefill = now
	}
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// writeMirror renders the operator-facing plain-text line:
//
//	2026-08-08T12:00:00.000Z info service: session created id=s-1 ...
func writeMirror(w io.Writer, ev *Event) {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(time.Unix(0, ev.TimeNS).UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteByte(' ')
	b.WriteString(ev.Level)
	b.WriteByte(' ')
	b.WriteString(ev.Sub)
	b.WriteString(": ")
	b.WriteString(ev.Msg)
	if ev.Session != "" {
		b.WriteString(" session=")
		b.WriteString(ev.Session)
	}
	if ev.FP != "" {
		b.WriteString(" fp=")
		b.WriteString(ev.FP)
	}
	if ev.Phase != "" {
		b.WriteString(" phase=")
		b.WriteString(ev.Phase)
	}
	for _, f := range ev.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		if strings.ContainsAny(f.Value, " \t") {
			fmt.Fprintf(&b, "%q", f.Value)
		} else {
			b.WriteString(f.Value)
		}
	}
	b.WriteByte('\n')
	io.WriteString(w, b.String())
}

// Snapshot returns up to n of the most recent events at or above
// minLevel, oldest first. n ≤ 0 means "all retained". The returned
// slice and its events are copies; mutating them cannot race the ring.
func (l *Log) Snapshot(n int, minLevel Level) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		ev := l.ring[(start+i)%len(l.ring)]
		if lv, ok := ParseLevel(ev.Level); ok && lv < minLevel {
			continue
		}
		// Copy Fields so callers cannot alias ring-owned slices after
		// the slot is overwritten. (Slots store the caller's slice; a
		// snapshot must not share it.)
		if len(ev.Fields) > 0 {
			ev.Fields = append([]Field(nil), ev.Fields...)
		}
		out = append(out, ev)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Dropped reports the number of rate-limited events per level.
func (l *Log) Dropped(lv Level) uint64 {
	if l == nil || lv < LevelDebug || lv > LevelError {
		return 0
	}
	return l.drops[lv].Load()
}

// DroppedTotal reports rate-limited events across all levels.
func (l *Log) DroppedTotal() uint64 {
	if l == nil {
		return 0
	}
	var t uint64
	for i := range l.drops {
		t += l.drops[i].Load()
	}
	return t
}

// Len reports the number of events currently retained.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
