package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// statz is the subset of GET /statz the benchmark reads. Every field is a
// counter or gauge the program already keeps.
type statz struct {
	Steps         uint64
	WarmStarts    uint64
	DriftRecosted uint64
	DriftResumed  uint64
	Cache         struct{ ExactHits, IsoHits, StaleHits, Misses uint64 }
	Store         struct {
		Persisted, Loaded, Dropped, WriteErrors uint64
		LiveBytes                               int64
	}
	Shards []struct{ Steps, Pops, Steals, Preempts uint64 }
}

// histogram is one Prometheus histogram family: cumulative bucket counts
// by upper bound, in ascending order (+Inf last).
type histogram struct {
	Le    []float64
	Cum   []float64
	Sum   float64
	Count float64
}

// quantile estimates the q-quantile (0..1) the way Prometheus'
// histogram_quantile does: find the bucket holding the rank and
// interpolate linearly inside it. A rank in the +Inf bucket reports the
// highest finite bound; an empty histogram reports 0.
func (h histogram) quantile(q float64) float64 {
	if h.Count == 0 || len(h.Le) == 0 {
		return 0
	}
	rank := q * h.Count
	i := sort.Search(len(h.Cum), func(i int) bool { return h.Cum[i] >= rank })
	if i >= len(h.Le) {
		i = len(h.Le) - 1
	}
	if math.IsInf(h.Le[i], 1) {
		if i == 0 {
			return 0
		}
		return h.Le[i-1]
	}
	lo, below := 0.0, 0.0
	if i > 0 {
		lo, below = h.Le[i-1], h.Cum[i-1]
	}
	in := h.Cum[i] - below
	if in <= 0 {
		return h.Le[i]
	}
	return lo + (h.Le[i]-lo)*(rank-below)/in
}

func (h histogram) minus(o histogram) histogram {
	if len(o.Cum) != len(h.Cum) {
		return h
	}
	out := histogram{Le: h.Le, Cum: make([]float64, len(h.Cum)), Sum: h.Sum - o.Sum, Count: h.Count - o.Count}
	for i := range h.Cum {
		out.Cum[i] = h.Cum[i] - o.Cum[i]
	}
	return out
}

func (h histogram) plus(o histogram) histogram {
	if len(h.Cum) == 0 {
		return o
	}
	if len(o.Cum) != len(h.Cum) {
		return h
	}
	out := histogram{Le: h.Le, Cum: make([]float64, len(h.Cum)), Sum: h.Sum + o.Sum, Count: h.Count + o.Count}
	for i := range h.Cum {
		out.Cum[i] = h.Cum[i] + o.Cum[i]
	}
	return out
}

// exposition is a parsed /metrics body: unlabelled samples by name and
// histogram families by family name.
type exposition struct {
	Values map[string]float64
	Hists  map[string]histogram
}

// parseExposition reads the Prometheus text format as moqod renders it.
// Only what the benchmark needs is kept: samples without labels, and
// _bucket/_sum/_count series of histograms whose only label is le.
func parseExposition(r io.Reader) (exposition, error) {
	ex := exposition{Values: map[string]float64{}, Hists: map[string]histogram{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return ex, fmt.Errorf("exposition: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return ex, fmt.Errorf("exposition: value of %q: %w", line, err)
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		labels = strings.TrimSuffix(labels, "}")
		switch {
		case strings.HasSuffix(name, "_bucket") && strings.HasPrefix(labels, `le="`) && !strings.Contains(labels, ","):
			le, err := strconv.ParseFloat(strings.Trim(labels[len(`le=`):], `"`), 64)
			if err != nil {
				return ex, fmt.Errorf("exposition: bound of %q: %w", line, err)
			}
			fam := strings.TrimSuffix(name, "_bucket")
			h := ex.Hists[fam]
			h.Le, h.Cum = append(h.Le, le), append(h.Cum, v)
			ex.Hists[fam] = h
		case labels == "":
			ex.Values[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return ex, err
	}
	for fam, h := range ex.Hists {
		h.Sum, h.Count = ex.Values[fam+"_sum"], ex.Values[fam+"_count"]
		ex.Hists[fam] = h
	}
	return ex, nil
}

// traceDoc is one entry of GET /debug/traces.
type traceDoc struct {
	ID string `json:"id"`
	// Dropped counts spans the session's ring overwrote; a session with
	// many regimes loses its oldest spans, the first regime among them.
	Dropped int `json:"dropped_spans"`
	Spans   []struct {
		Kind  string `json:"kind"`
		AtNS  int64  `json:"at_ns"`
		DurNS int64  `json:"dur_ns"`
	} `json:"spans"`
}

// budgetKinds are the span kinds whose durations the latency budget sums.
var budgetKinds = []string{"admit", "queue-wait", "steps", "export", "remap"}

// budget is one regime of one session decomposed by span kind.
type budget struct {
	TotalNS int64            // length of the regime's window
	ByKind  map[string]int64 // Σ dur_ns per budget kind inside that window
	// ConvergedNS is create call → first converged span, what the client's
	// time_to_target is compared with; 0 unless the window is the session's
	// first regime.
	ConvergedNS int64
}

// sessionBudget sums a trace's span durations by kind over one regime.
// For a complete trace that is the first regime: from the create call
// (the admit span's duration ahead of the trace's epoch) to the first
// converged span, or to the end of the snapshot export that follows it.
// A trace whose ring wrapped has lost that regime; its last complete one
// — bounds span to converged span — stands in. ok is false when the trace
// holds no complete regime.
func sessionBudget(t traceDoc) (b budget, ok bool) {
	b.ByKind = map[string]int64{}
	start, from, admit := int64(0), 0, int64(0)
	if t.Dropped > 0 {
		from = -1
		for i, s := range t.Spans {
			if s.Kind != "bounds" {
				continue
			}
			for _, later := range t.Spans[i+1:] {
				if later.Kind == "bounds" {
					break
				}
				if later.Kind == "converged" {
					from, start = i+1, s.AtNS
					break
				}
			}
		}
		if from < 0 {
			return b, false
		}
	}
	end := int64(-1)
	for _, s := range t.Spans[from:] {
		if s.Kind == "admit" {
			admit = s.DurNS
		}
		if s.Kind == "converged" {
			end = s.AtNS
			break
		}
	}
	if end < 0 {
		return b, false
	}
	if t.Dropped == 0 {
		b.ConvergedNS = admit + end
	}
	// The export of the converged state runs right after the last step,
	// still before the client can see at-target; extend the window over it.
	for _, s := range t.Spans[from:] {
		if s.Kind == "bounds" {
			break
		}
		if s.Kind == "export" && s.AtNS >= end {
			end = s.AtNS + s.DurNS
			break
		}
	}
	for _, s := range t.Spans[from:] {
		if s.AtNS > end {
			break
		}
		for _, k := range budgetKinds {
			if s.Kind == k {
				b.ByKind[k] += s.DurNS
			}
		}
	}
	b.TotalNS = admit + end - start
	return b, b.TotalNS > 0
}

// scrape is what the harness reads from a node once the timed phase is
// over. Everything in it comes from endpoints the program already serves.
type scrape struct {
	OK      bool
	Statz   statz
	Metrics exposition
	Traces  []traceDoc
	// MetricsMS and MetricsKB are the cost of the /metrics scrape itself.
	MetricsMS, MetricsKB float64
}

// scrapeNode reads /statz and /metrics, plus /debug/traces with full. A
// failed scrape is reported through OK, not as an error: the per-layer
// numbers it feeds have no bound, and the timed phase is already over.
func scrapeNode(base string, full bool) scrape {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	var s scrape
	data, err := get("/statz")
	if err != nil || json.Unmarshal(data, &s.Statz) != nil {
		return s
	}
	start := time.Now()
	data, err = get("/metrics")
	if err != nil {
		return s
	}
	s.MetricsMS, s.MetricsKB = ms(time.Since(start)), float64(len(data))/1024
	if s.Metrics, err = parseExposition(bytes.NewReader(data)); err != nil {
		return s
	}
	if full {
		data, err = get("/debug/traces?n=256")
		if err != nil || json.Unmarshal(data, &s.Traces) != nil {
			return s
		}
	}
	s.OK = true
	return s
}

// minus subtracts the counters and histograms of an earlier scrape of the
// same process, leaving what the timed phase added. Gauges keep the later
// reading.
func (s scrape) minus(o scrape) scrape {
	if !s.OK || !o.OK {
		s.OK = false
		return s
	}
	a, b := &s.Statz, o.Statz
	a.Steps -= b.Steps
	a.WarmStarts -= b.WarmStarts
	a.DriftRecosted -= b.DriftRecosted
	a.DriftResumed -= b.DriftResumed
	a.Cache.StaleHits -= b.Cache.StaleHits
	a.Cache.ExactHits -= b.Cache.ExactHits
	a.Cache.IsoHits -= b.Cache.IsoHits
	a.Cache.Misses -= b.Cache.Misses
	a.Store.Persisted -= b.Store.Persisted
	for i := range a.Shards {
		if i < len(b.Shards) {
			a.Shards[i].Steps -= b.Shards[i].Steps
			a.Shards[i].Pops -= b.Shards[i].Pops
			a.Shards[i].Steals -= b.Shards[i].Steals
			a.Shards[i].Preempts -= b.Shards[i].Preempts
		}
	}
	hists := map[string]histogram{}
	for fam, h := range s.Metrics.Hists {
		hists[fam] = h.minus(o.Metrics.Hists[fam])
	}
	s.Metrics.Hists = hists
	return s
}
