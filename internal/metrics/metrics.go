// Package metrics is the service's dependency-free metrics layer: a
// registry of atomic counters, scrape-time gauges and fixed-bucket
// log-scale histograms, rendered in the Prometheus text exposition
// format.
//
// The package exists because the refinement step path (DESIGN.md D9)
// cannot afford a general-purpose metrics dependency: recording a
// sample must not allocate and must not take a lock. Every instrument
// here is built on sync/atomic only —
//
//   - Counter is a single atomic word;
//   - Histogram holds a fixed, sorted bound slice chosen at
//     construction (log-scale for durations) and one atomic bucket
//     array. Observe is a bounded binary search plus two atomic adds:
//     zero allocation, no lock, safe under any number of concurrent
//     recorders.
//
// The Registry groups samples into named families (one HELP/TYPE
// header per family, any number of labeled samples under it) and
// writes the whole set with WriteText. Registration is startup-time
// and may allocate; scraping allocates only in the writer, never in
// recorders.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram safe for concurrent recording:
// bounds are chosen once at construction (ascending, the implicit last
// bucket is +Inf) and each observation is a binary search plus two
// atomic adds — no lock, no allocation. Values are recorded in base
// units (nanoseconds for durations); the scale factor converts bounds
// to exposition units (seconds) at scrape time only.
type Histogram struct {
	bounds []int64         // ascending upper bounds (le), base units
	scale  float64         // base unit → exposition unit (1e-9 for ns → s)
	counts []atomic.Uint64 // one per bucket, +Inf last
	sum    atomic.Int64    // base units

	// Exemplar slots, one per bucket, in a separate allocation so a
	// capture never dirties a cache line readers of counts/sum touch.
	// nil unless EnableExemplars was called.
	ex      []exemplar
	exFloor int // first bucket index that captures exemplars
}

// exemplar is one bucket's most recent tagged observation. Writers use
// TryLock so the step path never blocks (a contended capture is simply
// skipped — the bucket already has a fresh exemplar); scrapes use Lock.
type exemplar struct {
	mu  sync.Mutex
	id  string
	v   int64 // base units
	tns int64 // capture time, unix nanoseconds
	set bool
}

// NewHistogram builds a histogram over the given ascending bounds in
// base units, with the exposition scale factor. Panics on unsorted or
// empty bounds.
func NewHistogram(scale float64, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		scale:  scale,
		counts: make([]atomic.Uint64, len(b)+1), // +1: the +Inf bucket
	}
}

// DurationBounds returns the default log-scale latency bounds: powers
// of two from 1µs to ~34s (26 buckets before +Inf). The range covers
// everything from a single refinement step's inter-step gap to a
// pathological multi-minute session.
func DurationBounds() []int64 {
	bounds := make([]int64, 26)
	for i := range bounds {
		bounds[i] = int64(time.Microsecond) << i
	}
	return bounds
}

// NewDuration builds a duration histogram over DurationBounds,
// recording nanoseconds and exposing seconds.
func NewDuration() *Histogram {
	return NewHistogram(1e-9, DurationBounds())
}

// NewValues builds a unit-less histogram over explicit bounds.
func NewValues(bounds ...int64) *Histogram {
	return NewHistogram(1, bounds)
}

// bucketIndex returns the index of the first bound >= v, or
// len(bounds) for the +Inf bucket. Branch-free of allocation; the
// search is over a fixed small slice.
func (h *Histogram) bucketIndex(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records v (base units). Zero allocation; safe for any number
// of concurrent callers.
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// EnableExemplars allocates one exemplar slot per bucket. Buckets at
// or above floor (base units) capture; floor <= 0 enables every bucket.
// Call once at construction time, before concurrent observation.
func (h *Histogram) EnableExemplars(floor int64) *Histogram {
	h.ex = make([]exemplar, len(h.bounds)+1)
	h.exFloor = 0
	if floor > 0 {
		h.exFloor = h.bucketIndex(floor)
	}
	return h
}

// ObserveExemplar is Observe plus a best-effort exemplar
// capture tagging the observation with id (a session ID). The capture
// is zero-allocation and never blocks: slots are guarded by TryLock,
// and a contended slot simply keeps its previous exemplar. No-op
// beyond the plain observation when exemplars are disabled, id is
// empty, or the bucket is below the configured floor.
func (h *Histogram) ObserveExemplar(v int64, id string) {
	h.Observe(v)
	if h.ex == nil || id == "" {
		return
	}
	b := h.bucketIndex(v)
	if b < h.exFloor {
		return
	}
	e := &h.ex[b]
	if !e.mu.TryLock() {
		return
	}
	e.id, e.v, e.tns, e.set = id, v, time.Now().UnixNano(), true
	e.mu.Unlock()
}

// Exemplar returns bucket b's captured exemplar (id, value in base
// units, capture time in unix-nanos) and whether one is set. Exposed
// for tests and the exposition writer.
func (h *Histogram) Exemplar(b int) (id string, v int64, tns int64, ok bool) {
	if h.ex == nil || b < 0 || b >= len(h.ex) {
		return "", 0, 0, false
	}
	e := &h.ex[b]
	e.mu.Lock()
	id, v, tns, ok = e.id, e.v, e.tns, e.set
	e.mu.Unlock()
	return id, v, tns, ok
}

// Sum returns the sum of all observations so far, in base units.
// Allocation-free, for callers that Snapshot is too heavy for.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot is a scrape-time copy of a histogram's state. Counts are
// per-bucket (not cumulative); Count is the total.
type Snapshot struct {
	Bounds []int64  // upper bounds, base units; implicit +Inf last
	Counts []uint64 // len(Bounds)+1 per-bucket counts
	Sum    int64    // base units
	Count  uint64
}

// Snapshot copies the buckets into a consistent-enough copy (concurrent
// records may land between bucket reads; each bucket is individually
// exact). Allocates; call from scrape/report paths only.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.Sum()
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Quantile estimates the q-th quantile (q in [0,1]) in base units by
// linear interpolation inside the covering bucket; the +Inf bucket
// reports the last finite bound. Returns 0 on an empty histogram.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := float64(0)
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i == len(s.Bounds) { // +Inf bucket: no finite upper edge
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := int64(0)
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + int64(frac*float64(s.Bounds[i]-lower))
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// QuantileDuration is Quantile for duration histograms.
func (s Snapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// sample kinds inside a family.
const (
	kindCounterFunc = iota
	kindGaugeFunc
	kindHistogram
	kindHistogramFunc
)

// FloatSnapshot is a scrape-time histogram state with float bounds,
// produced by HistogramFunc callbacks (the runtime/metrics bridge).
// Bounds are ascending upper edges in exposition units; Counts has one
// extra trailing +Inf bucket.
type FloatSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1
	Sum    float64
}

type sample struct {
	labels    string // raw label pairs, e.g. `tier="exact"`; may be empty
	kind      int
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
	histFn    func() FloatSnapshot
}

// family is one metric name: a HELP/TYPE header plus its samples.
type family struct {
	name, help, typ string
	samples         []sample
}

// Registry holds metric families and renders them as Prometheus text
// exposition (version 0.0.4). Registration methods panic on invalid
// or conflicting names — metrics are wired at startup, and a typo
// should fail loudly there, not corrupt a scrape.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register appends a sample to name's family, creating it on first
// use; re-registrations must agree on type and help, and a (name,
// labels) pair may only be registered once.
func (r *Registry) register(name, help, typ string, s sample) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.index[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	for _, old := range f.samples {
		if old.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate sample %s{%s}", name, s.labels))
		}
	}
	f.samples = append(f.samples, s)
}

// Counter creates, registers and returns a counter: the one word its
// owner increments, reads back for its own reports and the scrape
// renders. labels is a raw label-pair string like `tier="exact"`, or
// empty.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, labels, c.Value)
	return c
}

// CounterFunc registers a counter sample read from fn at scrape time:
// the bridge for counts another package keeps under its own lock.
// labels is as for Counter.
func (r *Registry) CounterFunc(name, help, labels string, fn func() uint64) {
	r.register(name, help, "counter", sample{labels: labels, kind: kindCounterFunc, counterFn: fn})
}

// GaugeFunc registers a gauge sample read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.register(name, help, "gauge", sample{labels: labels, kind: kindGaugeFunc, gaugeFn: fn})
}

// Histogram registers h under name (with optional labels) and returns
// it, so an instrument is built and registered in one expression, and
// one constructed elsewhere (e.g. inside the store) is exposed here.
func (r *Registry) Histogram(name, help, labels string, h *Histogram) *Histogram {
	r.register(name, help, "histogram", sample{labels: labels, kind: kindHistogram, hist: h})
	return h
}

// HistogramFunc registers a histogram rendered from a snapshot
// callback at scrape time — the bridge for histograms that live
// elsewhere (runtime/metrics GC pause distributions). The callback's
// snapshot must keep Counts one longer than Bounds; WriteText renders
// it cumulatively, +Inf-terminated, with _sum and _count.
func (r *Registry) HistogramFunc(name, help, labels string, fn func() FloatSnapshot) {
	r.register(name, help, "histogram", sample{labels: labels, kind: kindHistogramFunc, histFn: fn})
}

// WriteText renders every family in the classic Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE line per
// family, then its samples (histograms expand to cumulative _bucket
// lines terminated by le="+Inf", plus _sum and _count). Families
// appear in registration order; a scrape allocates only here, never
// in recorders. Exemplars are NOT rendered: the `# {...}` suffix is
// only legal in OpenMetrics, and a 0.0.4 parser fails the entire
// scrape on it — clients that want exemplars negotiate
// WriteOpenMetrics instead.
func (r *Registry) WriteText(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders the same families in the OpenMetrics
// exposition format: histogram buckets carry their captured
// exemplars, counter families are advertised without the `_total`
// suffix their samples keep (the OpenMetrics naming rule), and the
// output ends with the mandatory `# EOF` terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.write(w, true)
}

func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	buf := make([]byte, 0, 4096)
	for _, f := range fams {
		famName := f.name
		if om && f.typ == "counter" {
			// OpenMetrics: the family is named without _total, the
			// samples with it.
			if b, ok := strings.CutSuffix(famName, "_total"); ok && b != "" {
				famName = b
			}
		}
		buf = append(buf, "# HELP "...)
		buf = append(buf, famName...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, famName...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')
		for _, s := range f.samples {
			switch s.kind {
			case kindCounterFunc:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counterFn()))
			case kindGaugeFunc:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gaugeFn())
			case kindHistogram:
				buf = appendHistogram(buf, f.name, s.labels, s.hist, om)
			case kindHistogramFunc:
				buf = appendFloatHistogram(buf, f.name, s.labels, s.histFn())
			}
		}
	}
	if om {
		buf = append(buf, "# EOF\n"...)
	}
	_, err := w.Write(buf)
	return err
}

// appendEscapedHelp escapes backslashes and newlines per the
// exposition format's HELP rules.
func appendEscapedHelp(buf []byte, help string) []byte {
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			buf = append(buf, `\\`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, help[i])
		}
	}
	return buf
}

// appendSample renders one `name[suffix]{labels[,extra]} value` line.
func appendSample(buf []byte, name, suffix, labels, extra string, v float64) []byte {
	return append(appendSampleNoNL(buf, name, suffix, labels, extra, v), '\n')
}

// appendSampleNoNL is appendSample without the trailing newline, so
// bucket lines can carry an exemplar suffix before the line break.
func appendSampleNoNL(buf []byte, name, suffix, labels, extra string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || extra != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if labels != "" && extra != "" {
			buf = append(buf, ',')
		}
		buf = append(buf, extra...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, v)
	return buf
}

// appendValue renders a float sample value (integers without a point,
// matching common exposition output).
func appendValue(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendHistogram renders one histogram sample: cumulative _bucket
// lines (le in exposition units, ascending, +Inf-terminated), _sum and
// _count. In OpenMetrics mode, buckets with a captured exemplar carry
// a `# {session_id="..."} value timestamp` suffix; classic 0.0.4
// output never does (its parser rejects the syntax).
func appendHistogram(buf []byte, name, labels string, h *Histogram, om bool) []byte {
	snap := h.Snapshot()
	cum := uint64(0)
	for i, b := range snap.Bounds {
		cum += snap.Counts[i]
		le := `le="` + strconv.FormatFloat(float64(b)*h.scale, 'g', -1, 64) + `"`
		buf = appendSampleNoNL(buf, name, "_bucket", labels, le, float64(cum))
		if om {
			buf = h.appendExemplar(buf, i)
		}
		buf = append(buf, '\n')
	}
	cum += snap.Counts[len(snap.Bounds)]
	buf = appendSampleNoNL(buf, name, "_bucket", labels, `le="+Inf"`, float64(cum))
	if om {
		buf = h.appendExemplar(buf, len(snap.Bounds))
	}
	buf = append(buf, '\n')
	buf = appendSample(buf, name, "_sum", labels, "", float64(snap.Sum)*h.scale)
	buf = appendSample(buf, name, "_count", labels, "", float64(cum))
	return buf
}

// appendExemplar appends bucket b's exemplar suffix, if one is set:
// a space, '#', and `{session_id="..."} value unix-seconds`.
func (h *Histogram) appendExemplar(buf []byte, b int) []byte {
	id, v, tns, ok := h.Exemplar(b)
	if !ok {
		return buf
	}
	buf = append(buf, ` # {session_id="`...)
	buf = appendEscapedLabelValue(buf, id)
	buf = append(buf, `"} `...)
	buf = appendValue(buf, float64(v)*h.scale)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, float64(tns)/1e9, 'f', 3, 64)
	return buf
}

// appendEscapedLabelValue escapes a label value per the exposition
// rules (backslash, double quote, newline). Session IDs are safe
// today, but ObserveExemplar accepts any string and one bad ID
// must not corrupt the whole scrape.
func appendEscapedLabelValue(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, `\\`...)
		case '"':
			buf = append(buf, `\"`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendFloatHistogram renders a HistogramFunc snapshot the same way
// appendHistogram renders a live histogram (no exemplars).
func appendFloatHistogram(buf []byte, name, labels string, snap FloatSnapshot) []byte {
	cum := uint64(0)
	for i, b := range snap.Bounds {
		if i < len(snap.Counts) {
			cum += snap.Counts[i]
		}
		le := `le="` + strconv.FormatFloat(b, 'g', -1, 64) + `"`
		buf = appendSample(buf, name, "_bucket", labels, le, float64(cum))
	}
	if len(snap.Counts) > len(snap.Bounds) {
		cum += snap.Counts[len(snap.Bounds)]
	}
	buf = appendSample(buf, name, "_bucket", labels, `le="+Inf"`, float64(cum))
	buf = appendSample(buf, name, "_sum", labels, "", snap.Sum)
	buf = appendSample(buf, name, "_count", labels, "", float64(cum))
	return buf
}

// Bounds returns the histogram's upper bounds in base units (shared;
// callers must not mutate). Exposed for tests and reporting.
func (h *Histogram) Bounds() []int64 { return h.bounds }
