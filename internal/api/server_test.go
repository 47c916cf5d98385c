package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/workload"
)

// newTestServer boots a small service (warm-start cache on, so
// the cache metric families register) behind the real mux.
func newTestServer(t *testing.T, pprofOn bool) (*httptest.Server, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 3,
			TargetPrecision:  1.05,
			PrecisionStep:    0.1,
		},
		Workers:       2,
		CacheCapacity: 16,
		IdleTimeout:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim(), Pprof: pprofOn})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	return ts, svc
}

// driveOne runs one session over the HTTP API — create, poll to
// at-target, select — and returns its id.
func driveOne(t *testing.T, ts *httptest.Server, block string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"block":%q}`, block)))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d, id %q", resp.StatusCode, created.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Steps int    `json:"steps"`
		}
		getJSON(t, ts.URL+"/sessions/"+created.ID, &st)
		if st.State == "at-target" {
			body := fmt.Sprintf(`{"index":0,"steps":%d}`, st.Steps)
			resp, err := http.Post(ts.URL+"/sessions/"+created.ID+"/select",
				"application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("select: status %d", resp.StatusCode)
			}
			return created.ID
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %q", created.ID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestMetricsEndpoint scrapes /metrics after a full session and checks
// the exposition is structurally well-formed (via the same grammar
// checker that pins WriteText) and that the lifecycle families carry
// real samples — an empty histogram would mean the instrumentation came
// unwired from the hot path.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, false)
	driveOne(t, ts, "Q4")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if err := metrics.CheckExposition(text); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		"moqod_sessions_created_total 1\n",
		"moqod_sessions_selected_total 1\n",
		"moqod_scheduler_pops_total ",
		"moqod_hot_queue_depth 0\n",
		`moqod_cache_hits_total{tier="exact"}`,
		"moqod_cache_misses_total 1\n",
		"moqod_active_sessions 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The step-path and poll-path histograms must have accumulated samples.
	for _, fam := range []string{
		"moqod_first_frontier_seconds",
		"moqod_queue_wait_seconds",
		"moqod_quantum_steps",
		"moqod_session_duration_seconds",
		"moqod_poll_body_bytes",
	} {
		if strings.Contains(text, fam+"_count 0\n") || !strings.Contains(text, fam+"_count") {
			t.Errorf("histogram %s has no samples:\n%s", fam, grepFam(text, fam))
		}
	}
}

// TestMetricsFormatNegotiation pins the exposition-format contract:
// exemplars are only legal in OpenMetrics, so a client negotiating
// application/openmetrics-text gets them plus the `# EOF` terminator,
// while the default classic 0.0.4 scrape must never carry an exemplar
// suffix (a 0.0.4 parser fails the whole scrape on one).
func TestMetricsFormatNegotiation(t *testing.T) {
	ts, _ := newTestServer(t, false)
	driveOne(t, ts, "Q4")

	get := func(accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// The Prometheus-style Accept line, parameters and all.
	om, ct := get("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics content type = %q", ct)
	}
	if err := metrics.CheckExposition(om); err != nil {
		t.Fatalf("malformed OpenMetrics exposition: %v", err)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition not # EOF-terminated")
	}
	if !strings.Contains(om, `# {session_id="`) {
		t.Errorf("OpenMetrics exposition has no exemplar:\n%s",
			grepFam(om, "moqod_first_frontier_seconds_bucket"))
	}

	for _, accept := range []string{"", "text/plain; version=0.0.4"} {
		classic, ct := get(accept)
		if !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Accept %q: content type = %q", accept, ct)
		}
		if err := metrics.CheckExposition(classic); err != nil {
			t.Fatalf("Accept %q: malformed exposition: %v", accept, err)
		}
		if strings.Contains(classic, " # {") {
			t.Errorf("Accept %q: classic exposition leaked an exemplar", accept)
		}
		if strings.Contains(classic, "# EOF") {
			t.Errorf("Accept %q: classic exposition carries # EOF", accept)
		}
	}
}

// grepFam extracts one family's lines for a focused failure message.
func grepFam(text, fam string) string {
	var b bytes.Buffer
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, fam) {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}

// TestTraceEndpoints checks the per-session trace endpoint for live and
// archived sessions, the recent-traces listing, and its error paths.
func TestTraceEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, false)
	id := driveOne(t, ts, "Q12")

	var d struct {
		ID    string `json:"id"`
		Spans []struct {
			Kind string `json:"kind"`
		} `json:"spans"`
	}
	if code := getJSON(t, ts.URL+"/debug/sessions/"+id+"/trace", &d); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if d.ID != id || len(d.Spans) == 0 {
		t.Fatalf("trace %q has %d spans", d.ID, len(d.Spans))
	}
	kinds := map[string]bool{}
	for _, sp := range d.Spans {
		kinds[sp.Kind] = true
	}
	for _, k := range []string{"admit", "steps", "selected"} {
		if !kinds[k] {
			t.Errorf("trace missing %q span: %v", k, kinds)
		}
	}

	if code := getJSON(t, ts.URL+"/debug/sessions/nope/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
	var recent []json.RawMessage
	if code := getJSON(t, ts.URL+"/debug/traces?n=8", &recent); code != http.StatusOK || len(recent) != 1 {
		t.Errorf("recent traces: status %d, %d entries", code, len(recent))
	}
	if code := getJSON(t, ts.URL+"/debug/traces?n=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

// TestPprofGating checks the profile endpoints exist exactly when the
// flag is on — they leak stacks and heap internals, so off by default.
func TestPprofGating(t *testing.T) {
	off, _ := newTestServer(t, false)
	if code := getJSON(t, off.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", code)
	}
	on, _ := newTestServer(t, true)
	if code := getJSON(t, on.URL+"/debug/pprof/", nil); code != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", code)
	}
}

// TestScrapeDuringLoad hammers /metrics and the trace endpoints while
// sessions run — under -race this pins scrape-time reads against the
// lock-free record paths end to end (histograms, atomic counters, the
// trace ring and archive).
func TestScrapeDuringLoad(t *testing.T) {
	ts, _ := newTestServer(t, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				getJSON(t, ts.URL+"/metrics", nil)
				getJSON(t, ts.URL+"/debug/traces", nil)
			}
		}
	}()
	blocks := []string{"Q4", "Q12", "Q13", "Q14"}
	for i := 0; i < 8; i++ {
		driveOne(t, ts, blocks[i%len(blocks)])
	}
	close(stop)
	wg.Wait()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := metrics.CheckExposition(string(body)); err != nil {
		t.Fatalf("malformed exposition under load: %v", err)
	}
	if !strings.Contains(string(body), "moqod_sessions_selected_total 8\n") {
		t.Errorf("expected 8 selected sessions in final scrape")
	}
}

// TestSyntheticQueryKeysMatchFreshCatalog pins the create path's shared
// inputs: a synthetic query built on the one TPC-H catalog with a
// recycled generator has the cache keys of the query built on a fresh
// catalog with a fresh generator, over a seeded sweep of (tables,
// topology, seed) visited in random order and twice, so that no call
// sees the state another left behind.
func TestSyntheticQueryKeysMatchFreshCatalog(t *testing.T) {
	type spec struct {
		tables int
		tp     query.Topology
		seed   int64
	}
	var specs []spec
	for tables := 2; tables <= 10; tables++ {
		for _, tp := range []query.Topology{query.Chain, query.Star, query.Cycle, query.Clique} {
			for seed := int64(1); seed <= 3; seed++ {
				specs = append(specs, spec{tables, tp, seed})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	order := append(rng.Perm(len(specs)), rng.Perm(len(specs))...)
	for _, i := range order {
		sp := specs[i]
		got, err := syntheticQuery(sp.tables, sp.tp, sp.seed)
		if err != nil {
			t.Fatal(err)
		}
		cat := catalog.TPCH(1)
		if sp.tables > cat.NumTables() {
			cat = catalog.Random(rand.New(rand.NewSource(sp.seed)), sp.tables, 100, 1e7)
		}
		want, err := query.Synthetic(cat, sp.tables, sp.tp, rand.New(rand.NewSource(sp.seed)))
		if err != nil {
			t.Fatal(err)
		}
		gotCanon, gotPerm := got.CanonicalFingerprint()
		wantCanon, wantPerm := want.CanonicalFingerprint()
		if got.Fingerprint() != want.Fingerprint() || gotCanon != wantCanon ||
			!slices.Equal(gotPerm, wantPerm) || got.StructuralFingerprint() != want.StructuralFingerprint() {
			t.Fatalf("%+v: the keys differ from a fresh catalog's", sp)
		}
	}
}
