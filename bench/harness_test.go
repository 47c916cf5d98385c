package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{9, 50}, {33, 50}, {34, 70}, {36, 70}, {99, 70}, {100, 90}, {192, 90}, {999, 90}, {1000, 99}, {1800, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 5}, {70, 7}, {90, 9}, {99, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%d) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must report 0")
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(values, n=4), which the contract's spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g, want 1 2 3", q1, med, q3)
	}
}

func TestPacerScheduleAndLateness(t *testing.T) {
	var p pacer
	t0 := time.Unix(1000, 0)
	if _, ok := p.late(t0); ok {
		t.Fatal("the first poll of a regime is due at once and cannot be late")
	}
	now := t0
	var got []time.Duration
	for i := 0; i < 8; i++ {
		p.arm(now)
		got = append(got, p.due.Sub(now))
		now = p.due.Add(300 * time.Microsecond) // every poll goes out 0.3 ms late
		late, ok := p.late(now)
		if !ok || late != 300*time.Microsecond {
			t.Fatalf("poll %d: late = %v, %v; want 300µs", i, late, ok)
		}
	}
	want := []time.Duration{1, 2, 4, 8, 16, 32, 32, 32}
	for i, w := range want {
		if got[i] != w*time.Millisecond {
			t.Errorf("pause %d = %v, want %dms", i, got[i], w)
		}
	}
	p.reset()
	if _, ok := p.late(now); ok {
		t.Error("after a bounds change the next poll is due at once")
	}
	p.arm(now)
	if p.due.Sub(now) != backoffStart {
		t.Errorf("after a reset the schedule restarts at %v, got %v", backoffStart, p.due.Sub(now))
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := requestList(w, 7, 300), requestList(w, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", w.Name)
		}
		if bytes.Equal(a, requestList(w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.Name)
		}
		// Every script position is a pure function of (seed, i).
		if s1, s2 := w.Script(7, 123), w.Script(7, 123); s1.Query.key() != s2.Query.key() || s1.regimes() != s2.regimes() {
			t.Errorf("%s: Script(7, 123) is not reproducible", w.Name)
		}
	}
}

// TestSeedNeverReachesMoqod: the only thing derived from -seed that moqod
// sees are the generated requests.
func TestSeedNeverReachesMoqod(t *testing.T) {
	for _, node := range []nodeConfig{{}, {CacheDir: "/tmp/store"}, {NoCache: true}} {
		for _, a := range moqodArgs("127.0.0.1:1", node) {
			if strings.Contains(a, "seed") {
				t.Errorf("moqod is started with %q", a)
			}
		}
	}
}

func TestNeverSeenQueriesAreDistinct(t *testing.T) {
	for _, name := range []string{"cold_distinct", "interactive_drag"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := 0; i < 2000; i++ {
			k := w.Script(3, i).Query.key()
			if seen[k] {
				t.Fatalf("%s: session %d repeats %s", name, i, k)
			}
			seen[k] = true
		}
	}
}

func TestRestartCycleShape(t *testing.T) {
	w, err := findWorkload("restart_cycle")
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]bool{}
	for cycle := 0; cycle < 5; cycle++ {
		blocks, synth := map[string]int{}, 0
		for i := 0; i < w.CycleSessions; i++ {
			q := w.Script(1, cycle*w.CycleSessions+i).Query
			if q.Block != "" {
				blocks[q.Block]++
				continue
			}
			synth++
			if fresh[q.key()] {
				t.Errorf("cycle %d repeats the write-through query %s", cycle, q.key())
			}
			fresh[q.key()] = true
		}
		if synth != 2 || len(blocks) != len(smallBlocks) {
			t.Errorf("cycle %d: %d new queries, %d distinct blocks", cycle, synth, len(blocks))
		}
		for b, n := range blocks {
			if n != 2 {
				t.Errorf("cycle %d visits %s %d times, want 2", cycle, b, n)
			}
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// comm may hold spaces and parentheses; fields 14/15 are utime/stime.
	stat := "4242 (moq (od) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 29 0 0 20 0 6 0 123456 1234567 2000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.UserS != 7.31 || cpu.SysS != 0.29 {
		t.Errorf("cpu = %+v, want 7.31 s user and 0.29 s system", cpu)
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("a line without comm must be an error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmoqod\nVmPeak:\t 1234567 kB\nVmHWM:\t  225280 kB\nVmRSS:\t  100000 kB\n"
	mb, err := parseVmHWM(status)
	if err != nil || mb != 220 {
		t.Errorf("VmHWM = %g MB, %v; want 220", mb, err)
	}
	if _, err := parseVmHWM("Name:\tmoqod\n"); err == nil {
		t.Error("a status without VmHWM must be an error")
	}
}

const cannedExposition = `# HELP moqod_queue_wait_seconds Enqueue to first step of the servicing pop.
# TYPE moqod_queue_wait_seconds histogram
moqod_queue_wait_seconds_bucket{le="0.001"} 10
moqod_queue_wait_seconds_bucket{le="0.002"} 30
moqod_queue_wait_seconds_bucket{le="0.004"} 40
moqod_queue_wait_seconds_bucket{le="+Inf"} 40
moqod_queue_wait_seconds_sum 0.07
moqod_queue_wait_seconds_count 40
moqod_go_heap_objects_bytes 8.388608e+06
moqod_cache_hits_total{tier="exact"} 12
moqod_shard_steps_total{shard="0"} 5
`

func TestHistogramQuantileReader(t *testing.T) {
	ex, err := parseExposition(strings.NewReader(cannedExposition))
	if err != nil {
		t.Fatal(err)
	}
	h := ex.Hists["moqod_queue_wait_seconds"]
	if h.Count != 40 || h.Sum != 0.07 || len(h.Le) != 4 {
		t.Fatalf("histogram = %+v", h)
	}
	// rank 20 of 40 lies in (0.001, 0.002], which holds ranks 11..30:
	// 0.001 + 0.001·(20−10)/20.
	if got := h.quantile(0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p50 = %g, want 0.0015", got)
	}
	if got := h.quantile(0.25); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p25 = %g, want 0.001 (the bucket's upper bound)", got)
	}
	if got := h.quantile(1); got != 0.004 {
		t.Errorf("p100 = %g, want 0.004", got)
	}
	if ex.Values["moqod_go_heap_objects_bytes"] != 8388608 {
		t.Errorf("gauge = %g", ex.Values["moqod_go_heap_objects_bytes"])
	}
	if _, ok := ex.Values["moqod_cache_hits_total"]; ok {
		t.Error("labelled samples must not be read as unlabelled ones")
	}
	if (histogram{}).quantile(0.5) != 0 {
		t.Error("an empty histogram reports 0")
	}
	d := h.minus(histogram{Le: h.Le, Cum: []float64{10, 10, 10, 10}, Sum: 0.01, Count: 10})
	if d.Count != 30 || d.Cum[1] != 20 || d.quantile(0.5) <= 0.001 {
		t.Errorf("difference = %+v", d)
	}
}

// cannedTraces is the /debug/traces document of one cold session with one
// later bounds regime, as moqod at 5df6f1d renders it.
const cannedTraces = `[{"id":"s-1","start":"2026-09-28T12:48:29.630242423Z","provenance":"cold","spans":[
{"kind":"admit","at_ns":0,"dur_ns":100000},{"kind":"cache-miss","at_ns":0},
{"kind":"queue-wait","at_ns":5000,"dur_ns":60000},
{"kind":"first-frontier","at_ns":20000000,"dur_ns":20000000},
{"kind":"curve","at_ns":65000,"frontier":218,"scalar":40911.902},
{"kind":"steps","at_ns":65000,"n":1},
{"kind":"queue-wait","at_ns":20005000,"dur_ns":40000},
{"kind":"steps","at_ns":20045000,"dur_ns":19000000,"n":4},
{"kind":"converged","at_ns":39045000,"n":5},
{"kind":"export","at_ns":45000000,"dur_ns":900000},
{"kind":"bounds","at_ns":50000000},
{"kind":"queue-wait","at_ns":50001000,"dur_ns":7000000},
{"kind":"steps","at_ns":57001000,"dur_ns":3000000,"n":5},
{"kind":"converged","at_ns":60001000,"n":10},
{"kind":"export","at_ns":61000000,"dur_ns":800000},
{"kind":"selected","at_ns":329223810}]},
{"id":"s-2","start":"2026-09-28T12:48:30Z","spans":[{"kind":"admit","at_ns":0,"dur_ns":5},{"kind":"closed","at_ns":10}]}]`

func TestBudgetSummation(t *testing.T) {
	var docs []traceDoc
	if err := json.Unmarshal([]byte(cannedTraces), &docs); err != nil {
		t.Fatal(err)
	}
	b, ok := sessionBudget(docs[0])
	if !ok {
		t.Fatal("the converged session has a budget")
	}
	// Window: admit (0.1 ms) + creation → end of the first export (45.9 ms).
	if b.TotalNS != 100000+45900000 {
		t.Errorf("total = %d ns", b.TotalNS)
	}
	if b.ConvergedNS != 100000+39045000 {
		t.Errorf("converged = %d ns", b.ConvergedNS)
	}
	want := map[string]int64{"admit": 100000, "queue-wait": 100000, "steps": 19000000, "export": 900000}
	for k, v := range want {
		if b.ByKind[k] != v {
			t.Errorf("%s = %d ns, want %d (the second regime must stay out)", k, b.ByKind[k], v)
		}
	}
	if _, ok := sessionBudget(docs[1]); ok {
		t.Error("a session that never converged has no budget")
	}

	// A ring that wrapped lost the first regime: the last complete one —
	// bounds to converged, plus its export — stands in, and the trace no
	// longer says when the session first converged.
	var wrapped traceDoc
	if err := json.Unmarshal([]byte(`{"id":"s-3","dropped_spans":5,"spans":[
{"kind":"steps","at_ns":100,"dur_ns":5,"n":2},{"kind":"converged","at_ns":105,"n":5},
{"kind":"bounds","at_ns":200},{"kind":"queue-wait","at_ns":201,"dur_ns":10},
{"kind":"steps","at_ns":211,"dur_ns":30,"n":5},{"kind":"converged","at_ns":241,"n":10},
{"kind":"export","at_ns":250,"dur_ns":4},
{"kind":"bounds","at_ns":300},{"kind":"steps","at_ns":301,"dur_ns":2,"n":1}]}`), &wrapped); err != nil {
		t.Fatal(err)
	}
	b, ok = sessionBudget(wrapped)
	if !ok || b.TotalNS != 54 || b.ByKind["queue-wait"] != 10 || b.ByKind["steps"] != 30 || b.ByKind["export"] != 4 || b.ConvergedNS != 0 {
		t.Errorf("wrapped trace: %+v, %v; want the 54 ns regime from the bounds span at 200", b, ok)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99}
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     verdict
	}{
		{"same within the bound", tight, []float64{104, 105, 103}, false, 0.1, same},
		{"worse beyond the bound", tight, []float64{120, 121, 119}, false, 0.1, worse},
		{"better beyond the bound", tight, []float64{80, 81, 79}, false, 0.1, better},
		{"higher is better: a drop is worse", tight, []float64{80, 81, 79}, true, 0.1, worse},
		{"higher is better: a rise is better", tight, []float64{120, 121, 119}, true, 0.1, better},
		{"spread wider than the bound", []float64{80, 100, 130}, []float64{100, 112, 125}, false, 0.1, unresolved},
		{"wide spread, but every new run is worse", []float64{80, 100, 130}, []float64{150, 160, 170}, false, 0.1, worse},
		{"wide spread, but every new run is better", []float64{80, 100, 130}, []float64{50, 60, 70}, false, 0.1, better},
		{"nothing to compare", nil, tight, false, 0.1, unresolved},
	} {
		if got := judge(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentHostsAndWorkloads(t *testing.T) {
	mk := func() *resultFile {
		return &resultFile{
			Host:      hostBlock{NProc: 2, GOMAXPROCS: 2, Clients: 2, GoVersion: "go1.24.0", Kernel: "k", Commit: "a"},
			Seconds:   15,
			Workloads: map[string]string{"cold_distinct": "x"},
		}
	}
	a, b := mk(), mk()
	b.Host.Commit, b.Host.BuildS = "b", 3
	var out bytes.Buffer
	if code := compareResults(a, b, &out); code != 0 {
		t.Errorf("different commits must compare, got exit %d:\n%s", code, out.String())
	}
	b.Host.NProc = 8
	if code := compareResults(a, b, &out); code != 2 {
		t.Errorf("different core counts: exit %d, want 2", code)
	}
	b = mk()
	b.Workloads["cold_distinct"] = "y"
	if code := compareResults(a, b, &out); code != 2 {
		t.Errorf("different workload definitions: exit %d, want 2", code)
	}
}

func TestCompareExitsOnWorseAndOnMoreFailures(t *testing.T) {
	mk := func(rate float64, failed int) *resultFile {
		f := &resultFile{Seconds: 15, Workloads: map[string]string{}}
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.Name] = metricValue{Value: 10 + float64(i)*0.01, Unit: d.Unit}
				}
				m["sessions_per_s"] = metricValue{Value: rate + float64(i)*0.01, Unit: "1/s"}
				f.Runs = append(f.Runs, &runResult{Workload: w.Name, Metrics: m, Attempted: 100, Failed: failed})
			}
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(mk(10, 0), mk(10, 0), &out); code != 0 {
		t.Errorf("identical run sets: exit %d\n%s", code, out.String())
	}
	if code := compareResults(mk(10, 0), mk(5, 0), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("halved throughput: exit %d", code)
	}
	if code := compareResults(mk(10, 0), mk(10, 1), &out); code != 1 {
		t.Errorf("a higher failed share: exit %d, want 1", code)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// declarations in this package equal, in both directions.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for i, d := range perLayer {
		g := b.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, g, d)
		}
	}
}

func TestParseStatmRSS(t *testing.T) {
	mb, err := parseStatmRSS("123456 25600 3000 500 0 40000 0\n", 4096)
	if err != nil || mb != 100 {
		t.Errorf("rss = %g MB, %v; want 100", mb, err)
	}
	if _, err := parseStatmRSS("123456", 4096); err == nil {
		t.Error("a truncated statm must be an error")
	}
}
