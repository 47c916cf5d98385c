package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/tableset"
)

// referencePollBody is the poll body as the handler wrote it before
// appendPollBody: a map[string]any through encoding/json's Encoder. It is
// the reference the append encoder must match byte for byte.
func referencePollBody(st *service.Status) ([]byte, error) {
	frontier := make([]planJSON, len(st.Frontier))
	for i, p := range st.Frontier {
		frontier[i] = planJSON{Plan: p.String(), Cost: p.Cost, Rows: p.Rows}
	}
	body := map[string]any{
		"id":              st.ID,
		"query":           st.Query,
		"state":           st.State.String(),
		"warm":            st.WarmStarted,
		"resolution":      st.Resolution,
		"steps":           st.Steps,
		"frontier":        frontier,
		"firstFrontierUs": st.FirstFrontier.Microseconds(),
	}
	if st.Drift != "" {
		body["drift"] = st.Drift
	}
	if st.Provenance != "" {
		body["provenance"] = st.Provenance
	}
	if st.Err != "" {
		body["error"] = st.Err
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(body)
	return buf.Bytes(), err
}

// randomFloat draws from the places the two float formatters could
// disagree: both sides of the 1e-6 and 1e21 format switches, integers,
// zeros, arbitrary bit patterns (which include NaN and ±Inf), and plain
// cost-like magnitudes.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		edges := []float64{1e-6, 1e21, 1e-7, 1e20, 1e-5, 1e22, 1e-9, 1e-10, 1e100, 1e-100, 123456789e13}
		e := edges[rng.Intn(len(edges))]
		return []float64{e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)), -e}[rng.Intn(4)]
	case 1:
		return float64(rng.Int63n(1 << 53))
	case 2:
		return []float64{0, math.Copysign(0, -1), 1, -1, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(7)]
	case 3:
		return math.Float64frombits(rng.Uint64())
	default:
		return math.Exp(rng.Float64()*60 - 20)
	}
}

// randomPlan builds a plan tree of the given depth with random operators,
// degrees and sampling rates; about one cost vector in eight is nil.
func randomPlan(rng *rand.Rand, depth int) *plan.Node {
	n := &plan.Node{Rows: randomFloat(rng)}
	if rng.Intn(8) > 0 {
		n.Cost = make(cost.Vector, rng.Intn(4))
		for i := range n.Cost {
			n.Cost[i] = randomFloat(rng)
		}
	}
	if depth == 0 {
		n.TableID = rng.Intn(tableset.MaxTables)
		n.Tables = tableset.Singleton(n.TableID)
		n.Scan = plan.ScanOp(rng.Intn(3))
		n.SampleRate = 1
		if n.Scan == plan.SampleScan {
			n.SampleRate = rng.Float64()
		}
		return n
	}
	n.Join = plan.JoinOp(rng.Intn(3))
	n.Degree = 1 + rng.Intn(64)
	n.Left, n.Right = randomPlan(rng, depth-1), randomPlan(rng, rng.Intn(depth))
	n.Tables = n.Left.Tables.Union(n.Right.Tables)
	return n
}

// finite reports whether every number of the frontier can go into JSON.
func finite(frontier []*plan.Node) bool {
	for _, p := range frontier {
		if math.IsInf(p.Rows, 0) || math.IsNaN(p.Rows) || !p.Cost.IsFinite() {
			return false
		}
	}
	return true
}

// checkPollBody compares the append encoder with the reference on st.
func checkPollBody(t *testing.T, st *service.Status) {
	t.Helper()
	want, wantErr := referencePollBody(st)
	got, err := appendPollBody(nil, st)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendPollBody error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("poll body differs from encoding/json\n got %s\nwant %s", got, want)
	}
}

// statusStrings are field values that need every escape encoding/json
// applies, and the empty string that drops the optional keys.
var statusStrings = []string{
	"", "s-1", "exact-replay", "Q3", `quote " backslash \ slash /`, "<script>&amp;</script>",
	"tab\tnewline\ncr\rbell\a backspace\b formfeed\f nul\x00 esc\x1b del\x7f",
	"line para  séparés ✓ 🎯", "bad utf8 \xff\xfe tail \xc3", "\xe2\x80",
	"step panic: runtime error: index out of range [3] with length 3",
}

// TestPollBodyMatchesEncodingJSON is the seeded table behind
// FuzzPollBody: random statuses — optional fields present and absent,
// strings that need escapes, floats across the format switches, nil cost
// vectors, empty and wide frontiers — encode to the reference's bytes.
func TestPollBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pick := func() string { return statusStrings[rng.Intn(len(statusStrings))] }
	encoded := 0
	for i := 0; i < 3000; i++ {
		st := &service.Status{
			ID:            pick(),
			Query:         pick(),
			State:         service.State(rng.Intn(9)),
			WarmStarted:   rng.Intn(2) == 0,
			Drift:         pick(),
			Provenance:    pick(),
			Err:           pick(),
			Resolution:    rng.Intn(12) - 1,
			Steps:         rng.Intn(1 << 20),
			FirstFrontier: time.Duration(rng.Int63n(int64(time.Hour))),
		}
		if rng.Intn(4) == 0 {
			st.Drift, st.Provenance, st.Err = "", "", ""
		}
		for n := rng.Intn(6) * rng.Intn(6); n > 0; n-- {
			st.Frontier = append(st.Frontier, randomPlan(rng, rng.Intn(4)))
		}
		if finite(st.Frontier) {
			encoded++
		}
		checkPollBody(t, st)
	}
	if encoded < 1000 {
		t.Errorf("only %d of 3000 statuses were encodable; the table lost its premise", encoded)
	}
}

// FuzzPollBody lets the fuzzer pick the strings and the seed of the
// frontier; the body must equal encoding/json's, or both must refuse.
func FuzzPollBody(f *testing.F) {
	for i, s := range statusStrings {
		f.Add(s, "Q"+strconv.Itoa(i), s, "", s, int64(i), uint8(i))
	}
	f.Add("s-7", "chain4", "", "exact", "", int64(99), uint8(40))
	f.Fuzz(func(t *testing.T, id, query, drift, provenance, errText string, seed int64, plans uint8) {
		rng := rand.New(rand.NewSource(seed))
		st := &service.Status{
			ID:            id,
			Query:         query,
			State:         service.State(rng.Intn(9)),
			WarmStarted:   seed%2 == 0,
			Drift:         drift,
			Provenance:    provenance,
			Err:           errText,
			Resolution:    rng.Intn(12) - 1,
			Steps:         int(rng.Int31()),
			FirstFrontier: time.Duration(rng.Int63()),
		}
		for n := int(plans) % 48; n > 0; n-- {
			st.Frontier = append(st.Frontier, randomPlan(rng, rng.Intn(4)))
		}
		checkPollBody(t, st)
	})
}

// TestPollNonFiniteAnswers500 pins the error path: a frontier JSON cannot
// carry answers 500 with a JSON error body (it used to be a 200 with no
// body at all), and the pooled buffer serves the next poll unharmed.
func TestPollNonFiniteAnswers500(t *testing.T) {
	a := New(Config{})
	good := &plan.Node{Tables: tableset.Singleton(0), SampleRate: 1, Rows: 10, Cost: cost.Vec(1, 2, 0)}
	for name, bad := range map[string]*plan.Node{
		"cost": {Tables: tableset.Singleton(1), TableID: 1, SampleRate: 1, Rows: 10, Cost: cost.Vec(1, math.Inf(1), 0)},
		"rows": {Tables: tableset.Singleton(1), TableID: 1, SampleRate: 1, Rows: math.NaN(), Cost: cost.Vec(1, 2, 0)},
	} {
		rec := httptest.NewRecorder()
		a.writePoll(rec, &service.Status{ID: "s-1", Frontier: []*plan.Node{good, bad}})
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
			t.Errorf("non-finite %s: status %d, body %q (%v), want 500 with a JSON error", name, rec.Code, rec.Body, err)
		}
	}
	st := &service.Status{ID: "s-2", Query: "Q3", Resolution: 2, Frontier: []*plan.Node{good}}
	rec := httptest.NewRecorder()
	a.writePoll(rec, st)
	want, _ := referencePollBody(st)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("poll after a refused one: status %d, body %q, want %q", rec.Code, rec.Body, want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length %q, want %d", got, len(want))
	}
	// moqod_poll_body_bytes saw the one body that went out, not the refused.
	if snap := a.pollBytes.Snapshot(); snap.Count != 1 || snap.Sum != int64(len(want)) {
		t.Errorf("poll-bytes histogram count %d sum %d, want 1 sample of %d bytes", snap.Count, snap.Sum, len(want))
	}
}

// wideStatus is a converged session with a frontier of n three-join plans.
func wideStatus(n int) *service.Status {
	rng := rand.New(rand.NewSource(7))
	st := &service.Status{
		ID: "s-4711", Query: "chain4", State: service.AtTarget, WarmStarted: true,
		Provenance: "exact", Resolution: 9, Steps: 10, FirstFrontier: 1234 * time.Microsecond,
	}
	for len(st.Frontier) < n {
		p := randomPlan(rng, 3)
		p.Rows = math.Exp(rng.Float64() * 20)
		p.Cost = cost.Vec(math.Exp(rng.Float64()*20), float64(1+rng.Intn(64)), rng.Float64())
		st.Frontier = append(st.Frontier, p)
	}
	return st
}

// TestPollEncodeAllocFree pins the encoder's steady state: into a buffer
// that has already grown to the body's size it allocates nothing.
func TestPollEncodeAllocFree(t *testing.T) {
	st := wideStatus(600)
	buf, err := appendPollBody(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		buf, _ = appendPollBody(buf[:0], st)
	}); allocs != 0 {
		t.Errorf("encoding a 600-plan poll body allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkPollEncode is the api layer's line in the ledger: one poll
// body of a 600-plan frontier, by the append encoder into a reused buffer
// and, as its base, by the encoding/json reference.
func BenchmarkPollEncode(b *testing.B) {
	st := wideStatus(600)
	buf, err := appendPollBody(nil, st)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			buf, _ = appendPollBody(buf[:0], st)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if _, err := referencePollBody(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPollBody sizes what skyline publication (DESIGN.md D20) takes
// off a poll: one body at the 70 plans a converged 4-table chain query
// publishes, against one at the 562 result plans it used to carry.
func BenchmarkPollBody(b *testing.B) {
	for _, bc := range []struct {
		name  string
		plans int
	}{{"published", 70}, {"unfiltered", 562}} {
		b.Run(bc.name, func(b *testing.B) {
			st := wideStatus(bc.plans)
			buf, err := appendPollBody(nil, st)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendPollBody(buf[:0], st)
			}
			b.ReportMetric(float64(len(buf)), "B/body")
		})
	}
}
