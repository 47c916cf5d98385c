package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGauge: a registered counter is one word — what its owner
// reads back is what the scrape renders, under its labels.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events", "")
	hit := r.Counter("test_hits_total", "hits", `tier="exact"`)
	c.Inc()
	c.Add(4)
	hit.Inc()
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test_events_total 5\n", `test_hits_total{tier="exact"} 1` + "\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewValues(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000, -2} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=10 gets {1, 10, -2}; le=100 gets {11, 100}; le=1000 none;
	// +Inf gets {5000}.
	want := []uint64{3, 2, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1+10+11+100+5000-2 {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestHistogramStripesMerge: observations from concurrent recorders
// all land in the one bucket array, none lost.
func TestHistogramStripesMerge(t *testing.T) {
	h := NewValues(10, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Observe(5)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Counts[0] != 800 || s.Count != 800 || s.Sum != 4000 {
		t.Fatalf("concurrent observations did not merge: %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewDuration()
	// 100 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms bucket,
	// p99 in the 100ms one.
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(100 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.QuantileDuration(0.50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	p99 := s.QuantileDuration(0.99)
	if p99 < 50*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want ~100ms", p99)
	}
	if (Snapshot{}).Quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
}

// TestHistogramObserveAllocFree pins the hot-path contract: recording
// into a histogram performs zero heap allocations.
// The service records an observation per refinement step (DESIGN.md
// D13), so any allocation here multiplies across every session.
func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewDuration()
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123456)
	}); allocs != 0 {
		t.Errorf("Observe allocates %.2f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveDuration(time.Millisecond)
	}); allocs != 0 {
		t.Errorf("ObserveDuration allocates %.2f per call, want 0", allocs)
	}
}

// TestConcurrentRecordDuringScrape hammers histogram records and
// counter increments from many goroutines while scraping the registry;
// under -race this pins the lock-free record path against the scrape
// path.
func TestConcurrentRecordDuringScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", "", NewDuration())
	c := r.Counter("test_ops_total", "ops", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(int64(time.Microsecond) << uint(i))
					c.Inc()
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_latency_seconds_bucket") {
		t.Fatal("scrape missing histogram buckets")
	}
}

func TestRegistryPanicsOnConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "a", "")
	for name, fn := range map[string]func(){
		"duplicate sample": func() { r.Counter("dup_total", "a", "") },
		"type conflict":    func() { r.GaugeFunc("dup_total", "a", `x="1"`, func() float64 { return 0 }) },
		"invalid name":     func() { r.Counter("9bad", "a", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// Same name with distinct labels is legal (one family, two samples).
	r.CounterFunc("labeled_total", "a", `shard="0"`, func() uint64 { return 0 })
	r.CounterFunc("labeled_total", "a", `shard="1"`, func() uint64 { return 1 })
}

// ValidateExposition fails the test on any structural violation of the
// text exposition format; the grammar itself lives in CheckExposition
// (a normal exported function, so moqod's HTTP scrape test can reuse
// it).
func ValidateExposition(t *testing.T, text string) {
	t.Helper()
	if err := CheckExposition(text); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, text)
	}
}

// TestCheckExpositionRejectsMalformed pins the validator's teeth: text
// violating each structural rule must be rejected (a validator that
// passes everything would make the scrape tests vacuous).
func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "no_type_total 1\n",
		"TYPE before HELP":   "# TYPE x counter\nx 1\n",
		"unparseable sample": "# HELP x a\n# TYPE x counter\nx one\n",
		"non-cumulative buckets": "# HELP h a\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n",
		"missing +Inf": "# HELP h a\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_count 5\n",
		"count mismatch": "# HELP h a\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_count 4\n",
	}
	for name, text := range cases {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: validator accepted malformed text:\n%s", name, text)
		}
	}
}

func TestWriteTextWellFormed(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served", "")
	c.Add(42)
	r.GaugeFunc("app_queue_depth", "queue depth", `shard="0"`, func() float64 { return 3 })
	r.GaugeFunc("app_queue_depth", "queue depth", `shard="1"`, func() float64 { return 1.5 })
	h := r.Histogram("app_latency_seconds", "latency with \\ and\nnewline", "", NewDuration())
	h.ObserveDuration(3 * time.Millisecond)
	h.Observe(int64(2 * time.Second))
	h.ObserveDuration(5 * time.Minute) // +Inf bucket
	sp := NewValues(1, 2, 4, 8)
	sp.Observe(3)
	r.Histogram("app_steps", "steps per pop", "", sp)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	ValidateExposition(t, text)
	for _, want := range []string{
		"app_requests_total 42\n",
		`app_queue_depth{shard="0"} 3` + "\n",
		`app_latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"app_latency_seconds_count 3\n",
		"app_steps_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "newline") && strings.Contains(text, "latency with \\ and\nnewline") {
		t.Errorf("HELP newline not escaped")
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]int64{nil, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			NewHistogram(1, bounds)
		}()
	}
}

func TestDurationBoundsShape(t *testing.T) {
	b := DurationBounds()
	if b[0] != int64(time.Microsecond) {
		t.Fatalf("first bound %d", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bound %d not log-scale: %d vs %d", i, b[i], b[i-1])
		}
	}
	if last := time.Duration(b[len(b)-1]); last < 30*time.Second {
		t.Fatalf("range tops out at %v, want >= 30s", last)
	}
}

func ExampleRegistry_WriteText() {
	r := NewRegistry()
	c := r.Counter("example_total", "an example counter", "")
	c.Add(2)
	var buf bytes.Buffer
	_ = r.WriteText(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP example_total an example counter
	// # TYPE example_total counter
	// example_total 2
}
