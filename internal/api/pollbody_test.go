package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/tableset"
)

// planJSON is a plan as encoding/json writes it, the reference for
// plan.Node.AppendJSON in poll and select bodies.
type planJSON struct {
	Plan string    `json:"plan"`
	Cost []float64 `json:"cost"`
	Rows float64   `json:"rows"`
}

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

// tabled returns a copy of st whose frontier mixes, as copies of st's
// plans, the three kinds of node a restored session publishes: plans of
// its snapshot's skylines, which the render table holds; the session's
// own plans, numbered above the snapshot's watermark; and foreign nodes
// that share their ID with a table entry of other content, which must be
// rendered, not copied. The table also holds plans the frontier does not
// publish. It returns the number of foreign nodes.
func tabled(rng *rand.Rand, st *service.Status) (*service.Status, int) {
	// shared and foreign number in step, so a foreign node takes the ID
	// of the decoy allocated beside it.
	shared, foreign, own := plan.NewArena(), plan.NewArena(), plan.NewArenaFrom(1<<20)
	var levels [3][]*plan.Node
	add := func(p *plan.Node) *plan.Node {
		q, l := shared.NewNode(*p), rng.Intn(len(levels))
		levels[l] = append(levels[l], q)
		return q
	}
	out := *st
	out.Frontier = make([]*plan.Node, len(st.Frontier))
	collisions := 0
	for i, p := range st.Frontier {
		switch rng.Intn(3) {
		case 0:
			out.Frontier[i] = add(p)
			foreign.NewNode(*p)
		case 1:
			out.Frontier[i] = own.NewNode(*p)
		default:
			add(randomPlan(rng, rng.Intn(4)))
			out.Frontier[i] = foreign.NewNode(*p)
			collisions++
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		add(randomPlan(rng, rng.Intn(4)))
	}
	out.Rendered = core.NewRenderTable(levels[:])
	return &out, collisions
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
// vectors, empty and wide frontiers — encode to the reference's bytes,
// and so does each status again with a render table (tabled).
func TestPollBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tableRng := rand.New(rand.NewSource(17))
	pick := func() string { return statusStrings[rng.Intn(len(statusStrings))] }
	encoded, collisions := 0, 0
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
		withTable, n := tabled(tableRng, st)
		checkPollBody(t, withTable)
		collisions += n
	}
	if encoded < 1000 || collisions < 1000 {
		t.Errorf("only %d of 3000 statuses were encodable, with %d foreign nodes; the table lost its premise", encoded, collisions)
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
		withTable, _ := tabled(rng, st)
		checkPollBody(t, withTable)
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
		// The bad plan in a render table as well: it gets no entry, and
		// the poll fails as it does without one.
		arena := plan.NewArena()
		tabledGood, tabledBad := arena.NewNode(*good), arena.NewNode(*bad)
		table := core.NewRenderTable([][]*plan.Node{{tabledGood, tabledBad}})
		for _, st := range []*service.Status{
			{ID: "s-1", Frontier: []*plan.Node{good, bad}},
			{ID: "s-1", Frontier: []*plan.Node{tabledGood, tabledBad}, Rendered: table},
		} {
			rec := httptest.NewRecorder()
			a.writePoll(rec, st)
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil ||
				!strings.Contains(body.Error, "non-finite") {
				t.Errorf("non-finite %s (table %v): status %d, body %q (%v), want 500 with a JSON error", name, st.Rendered != nil, rec.Code, rec.Body, err)
			}
		}
		if _, ok := table.Lookup(tabledBad); ok {
			t.Errorf("non-finite %s: the render table holds the plan", name)
		}
		// A select of the plan fails the same way.
		rec := httptest.NewRecorder()
		writeSelected(rec, "s-1", bad)
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil ||
			!strings.Contains(body.Error, "non-finite") {
			t.Errorf("select of non-finite %s: status %d, body %q (%v), want 500 with a JSON error", name, rec.Code, rec.Body, err)
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

// tabledWide is wideStatus(n) with every frontier plan in a render
// table, the way a restored session that generated nothing publishes.
func tabledWide(n int) *service.Status {
	st := wideStatus(n)
	arena := plan.NewArena()
	for i, p := range st.Frontier {
		st.Frontier[i] = arena.NewNode(*p)
	}
	st.Rendered = core.NewRenderTable([][]*plan.Node{st.Frontier})
	return st
}

// TestPollEncodeAllocFree pins the encoder's steady state: into a buffer
// that has already grown to the body's size it allocates nothing, with
// every plan rendered and with every plan copied from a render table.
func TestPollEncodeAllocFree(t *testing.T) {
	for name, st := range map[string]*service.Status{"render": wideStatus(600), "table": tabledWide(600)} {
		buf, err := appendPollBody(nil, st)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			buf, _ = appendPollBody(buf[:0], st)
		}); allocs != 0 {
			t.Errorf("%s: encoding a 600-plan poll body allocates %.1f times per call, want 0", name, allocs)
		}
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
// publishes, against one at the 562 result plans it used to carry. The
// restored/ cases poll the frontier of a session restored from a
// converged chain4 or star4 snapshot, with its plans copied from the
// snapshot's render table (table) and rendered as a cold session's are
// (render).
func BenchmarkPollBody(b *testing.B) {
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		s := restoredSessions(b, tp, 1)[0]
		for _, mode := range []struct {
			name  string
			table *core.RenderTable
		}{{"table", s.Optimizer().RenderTable()}, {"render", nil}} {
			b.Run("restored/"+tp.String()+"4/"+mode.name, func(b *testing.B) {
				st := &service.Status{ID: "s-4711", Query: tp.String(), State: service.AtTarget, WarmStarted: true,
					Provenance: "exact", Resolution: s.Resolution(), Frontier: s.Frontier(), Rendered: mode.table}
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
				b.ReportMetric(float64(len(st.Frontier)), "plans")
			})
		}
	}
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

// restoredSessions converges a 4-table query of the end-to-end
// benchmark's shape cold, exports its snapshot, and returns n sessions
// restored from it, each stepped through its regime as an exact-tier
// hit steps it. No plan of theirs has been looked up in the snapshot's
// render table yet.
func restoredSessions(tb testing.TB, tp query.Topology, n int) []*session.Session {
	tb.Helper()
	cfg := core.Config{Model: costmodel.Default(), ResolutionLevels: 5, TargetPrecision: 1.01, PrecisionStep: 0.05}
	q, err := query.Synthetic(catalog.TPCH(1), 4, tp, rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatal(err)
	}
	src := core.MustNewOptimizer(q, cfg)
	for r := 0; r <= cfg.MaxResolution(); r++ {
		src.Optimize(nil, r)
	}
	snap := src.Snapshot()
	out := make([]*session.Session, n)
	for i := range out {
		opt, err := core.NewOptimizerFromSnapshot(q, cfg, snap)
		if err != nil {
			tb.Fatal(err)
		}
		s, err := session.NewWithOptimizer(opt, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for !s.AtMaxResolution() {
			s.Step()
		}
		out[i] = s
	}
	return out
}

// TestFirstPollsShareRenderTable has several goroutines make the first
// polls of sessions restored from one snapshot at once: the render
// table they share is built by exactly one of them while the others
// wait for it (-race is the check), every body equals encoding/json's,
// and every published plan is a table hit.
func TestFirstPollsShareRenderTable(t *testing.T) {
	for _, tp := range []query.Topology{query.Chain, query.Star} {
		sessions := restoredSessions(t, tp, 4)
		table := sessions[0].Optimizer().RenderTable()
		if table == nil {
			t.Fatal("a restored optimizer has no render table")
		}
		var wg sync.WaitGroup
		for i, s := range sessions {
			if s.Optimizer().RenderTable() != table {
				t.Fatalf("%v: restore %d has a render table of its own", tp, i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := &service.Status{ID: "s-" + strconv.Itoa(i), Query: tp.String(), State: service.AtTarget,
					WarmStarted: true, Provenance: "exact", Resolution: s.Resolution(), Frontier: s.Frontier(), Rendered: table}
				got, err := appendPollBody(nil, st)
				want, wantErr := referencePollBody(st)
				if err != nil || wantErr != nil || !bytes.Equal(got, want) {
					t.Errorf("%v: restore %d: poll body differs from encoding/json (%v, %v)\n got %s\nwant %s", tp, i, err, wantErr, got, want)
				}
				for j, p := range s.Frontier() {
					if _, ok := table.Lookup(p); !ok {
						t.Errorf("%v: restore %d: published plan %d is not in the render table", tp, i, j)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
