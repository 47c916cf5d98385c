package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/service"
	wl "repro/internal/workload"
)

// inproc is a moqod node inside the test process: the real api.Mux over a
// real service, behind httptest — the same surface the child process
// serves, without the process.
type inproc struct {
	ts      *httptest.Server
	a       *api.API
	readyMS float64
}

func (n *inproc) Base() string     { return n.ts.URL }
func (n *inproc) PID() int         { return os.Getpid() }
func (n *inproc) ReadyMS() float64 { return n.readyMS }

// Stop is SIGTERM without the signal: drain, flush, stop serving.
func (n *inproc) Stop() (float64, error) {
	start := time.Now()
	n.a.Drain()
	n.ts.Close()
	return ms(time.Since(start)), nil
}

// inprocLauncher boots in-process nodes; wrap, when set, sits between the
// clients and the mux.
func inprocLauncher(wrap func(http.Handler) http.Handler) launcher {
	return func(_ context.Context, node nodeConfig, rec *recorder) (server, error) {
		start := time.Now()
		cnt := rec.Routes["readyz"]
		cnt.Attempted++
		scfg := service.Config{Opt: optConfig(), Workers: 2, Shards: 2, IdleTimeout: -1, StoreDir: node.CacheDir}
		if node.NoCache {
			scfg.CacheCapacity = -1
		}
		svc, err := service.New(scfg)
		if err != nil {
			cnt.Failed++
			return nil, err
		}
		a := api.New(api.Config{Seed: 1, Dim: costDim, DrainGrace: time.Second})
		a.Ready(svc, wl.MustTPCHBlocks(1))
		var h http.Handler = a.Mux()
		if wrap != nil {
			h = wrap(h)
		}
		cnt.Succeeded++
		return &inproc{ts: httptest.NewServer(h), a: a, readyMS: ms(time.Since(start))}, nil
	}
}

// smokeSessions caps each workload's timed phase at about 1/20 of what a
// full run completes.
var smokeSessions = map[string]int{"cold_distinct": 6, "warm_repeat": 56, "interactive_drag": 4, "restart_cycle": 80}

func smokeConfig(t *testing.T, w workload, traced bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		W: w, Seed: 1, Seconds: 120, MaxSessions: smokeSessions[w.Name], Traced: traced,
		Clients: 2, SetupReps: 1, Launch: inprocLauncher(nil), WorkDir: dir, ResultsDir: dir, ProbeQueries: 1,
	}
}

func finite(t *testing.T, res *runResult) {
	t.Helper()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s %s = %v", res.Workload, name, m.Value)
		}
	}
}

// TestSmoke drives the real client script through every workload and
// asserts that the names a run emits are exactly the ones BENCHMARK.json
// declares — in both directions — and that every value is finite.
func TestSmoke(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the harness", i, decl.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != smokeSessions[w.Name] {
				t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Failures)
			}
			finite(t, res)
			want := map[string]string{}
			for _, d := range decl.EndToEnd {
				want[d.Name] = d.Unit
			}
			sameNames(t, "end-to-end", res.Metrics, want)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract wants metrics that are never 0", name, m.Value)
				}
			}
			if w.Script(1, 0).Interactive && res.Counts["regimes"] != interactiveRegimes*res.Attempted {
				t.Errorf("%d regimes over %d interactive sessions, want %d each", res.Counts["regimes"], res.Attempted, interactiveRegimes)
			}
			if res.Counts["oracle_checks"] == 0 {
				t.Error("no session was checked against the exhaustive reference")
			}

			traced, err := runWorkload(context.Background(), smokeConfig(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run: %v", traced.Failures)
			}
			finite(t, traced)
			want = map[string]string{}
			for _, d := range decl.PerLayer {
				want[d.Name] = d.Unit
			}
			sameNames(t, "per-layer", traced.Metrics, want)
			if traced.FrontierDigest != res.FrontierDigest {
				t.Errorf("two runs of seed 1 disagree on the frontier digest: %s, %s", res.FrontierDigest, traced.FrontierDigest)
			}
			pathProof(t, w, traced)
		})
	}
}

func sameNames(t *testing.T, kind string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s metric %s is declared in BENCHMARK.json and not emitted", kind, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %s is emitted in %q and declared in %q", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s is emitted and not declared in BENCHMARK.json", kind, name)
		}
	}
}

// pathProof: the scraped counters show that the workload took the path it
// is meant to measure.
func pathProof(t *testing.T, w workload, res *runResult) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	sessions := float64(res.Counts["sessions_completed"])
	switch w.Name {
	case "cold_distinct", "interactive_drag":
		if v("service.warm_starts") != 0 || res.Counts["provenance_cold"] != res.Counts["sessions_completed"] {
			t.Errorf("%s: %g warm starts, %d of %g sessions report provenance cold; want every session to start from scratch",
				w.Name, v("service.warm_starts"), res.Counts["provenance_cold"], sessions)
		}
	case "warm_repeat":
		if v("service.cache_misses") != 0 || v("service.cache_iso_hits") != 0 || v("service.cache_exact_hits") != sessions {
			t.Errorf("warm_repeat: %g misses, %g iso hits, %g exact hits over %g sessions; want every create to hit exactly",
				v("service.cache_misses"), v("service.cache_iso_hits"), v("service.cache_exact_hits"), sessions)
		}
	case "restart_cycle":
		// Q11 and Q11-sub are the same query to the optimizer and share one
		// record, so the floor is the number of distinct fingerprints.
		distinct := map[string]bool{}
		for _, spec := range blockPool() {
			q, err := buildQuery(spec, wl.MustTPCHBlocks(1))
			if err != nil {
				t.Fatal(err)
			}
			distinct[q.Fingerprint()] = true
		}
		if v("store.loaded") < float64(len(distinct)) {
			t.Errorf("restart_cycle: a boot replayed %g records, want at least the %d pre-warmed ones", v("store.loaded"), len(distinct))
		}
		if v("store.persisted") < 2*float64(res.Counts["cycles"]) || v("store.write_errors") != 0 || v("store.dropped") != 0 {
			t.Errorf("restart_cycle: %g records persisted over %d cycles, %g write errors, %g dropped",
				v("store.persisted"), res.Counts["cycles"], v("store.write_errors"), v("store.dropped"))
		}
	}
	if res.Metrics["budget.unattributed_share"].Samples == 0 {
		t.Errorf("%s: no archived trace fed the latency budget", w.Name)
	}
}

// TestTraceFileSpansAreParentLinked runs one small traced workload and
// checks the span file: every parent exists, every layer of the probe
// table has a span, and client spans carry their session.
func TestTraceFileSpansAreParentLinked(t *testing.T) {
	w, err := findWorkload("warm_repeat")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, w, true)
	cfg.MaxSessions = 8
	if _, err := runWorkload(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.ResultsDir + "/trace-warm_repeat.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ids, layers := map[int]bool{}, map[string]int{}
	for _, s := range doc.Spans {
		ids[s.ID] = true
		layers[s.Layer]++
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s %s) ends before it starts", s.ID, s.Layer, s.Name)
		}
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s %s) names a parent %d that was not recorded", s.ID, s.Layer, s.Name, s.Parent)
		}
		if s.Layer == "api" && s.Name == "poll" && (s.Session == "" || s.Parent == 0) {
			t.Errorf("poll span %d carries no session or parent", s.ID)
		}
	}
	for _, layer := range []string{"client", "api", "probe", "query", "cost", "rangeindex", "costmodel", "plan", "core", "snapcodec", "store", "session", "service"} {
		if layers[layer] == 0 {
			t.Errorf("no span for layer %s", layer)
		}
	}
}

// corruptAtTarget rewrites every at-target poll body with mutate.
func corruptAtTarget(mutate func(body map[string]any)) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/sessions/") {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var body map[string]any
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &body) == nil && body["state"] == "at-target" {
				mutate(body)
				out, _ := json.Marshal(body)
				rec.Body = bytes.NewBuffer(out)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	}
}

// TestChecksFireOnCorruptedPollBody: a moqod that answers with a wrong
// frontier must fail the run, whichever way the frontier is wrong.
func TestChecksFireOnCorruptedPollBody(t *testing.T) {
	scaleCosts := func(f float64) func(map[string]any) {
		return func(body map[string]any) {
			for _, p := range body["frontier"].([]any) {
				c := p.(map[string]any)["cost"].([]any)
				c[0] = c[0].(float64) * f
			}
		}
	}
	for _, c := range []struct {
		name, workload, wantCheck string
		mutate                    func(map[string]any)
	}{
		{"empty frontier", "cold_distinct", "check frontier", func(b map[string]any) { b["frontier"] = []any{} }},
		{"short cost vector", "cold_distinct", "check frontier", func(b map[string]any) {
			p := b["frontier"].([]any)[0].(map[string]any)
			p["cost"] = p["cost"].([]any)[:2]
		}},
		{"stuck resolution", "cold_distinct", "check state", func(b map[string]any) { b["resolution"] = 2 }},
		{"costs worse than the exhaustive reference allows", "cold_distinct", "check oracle", scaleCosts(3)},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := findWorkload(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smokeConfig(t, w, false)
			cfg.MaxSessions = 3
			cfg.Launch = inprocLauncher(corruptAtTarget(c.mutate))
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, correct %v; every session must fail", res.Attempted, res.Failed, res.Correct)
			}
			if !strings.Contains(strings.Join(res.Failures, "\n"), c.wantCheck) {
				t.Errorf("failures do not name %q:\n%s", c.wantCheck, strings.Join(res.Failures, "\n"))
			}
		})
	}

	// Reuse equals cold: the second visit of a query answers differently.
	t.Run("warm frontier differs from the cold one", func(t *testing.T) {
		w, err := findWorkload("warm_repeat")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		cfg := smokeConfig(t, w, false)
		cfg.Clients = 1 // the wrapper's map is not synchronized
		cfg.MaxSessions = 4
		cfg.Launch = inprocLauncher(corruptAtTarget(func(b map[string]any) {
			name := b["query"].(string)
			if seen[name] {
				scaleCosts(1.0000001)(b)
			}
			seen[name] = true
		}))
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || !strings.Contains(strings.Join(res.Failures, "\n"), "check reuse") {
			t.Errorf("correct %v, failures:\n%s", res.Correct, strings.Join(res.Failures, "\n"))
		}
	})
}
