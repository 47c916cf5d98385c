package metrics

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExemplarCapture pins the capture semantics: an observation tagged
// with a session ID lands in its bucket's slot, a later observation in
// the same bucket replaces it, and untagged observations never capture.
func TestExemplarCapture(t *testing.T) {
	h := NewValues(10, 100, 1000)
	h.EnableExemplars(0)
	h.Observe(5) // untagged
	if _, _, _, ok := h.Exemplar(0); ok {
		t.Fatal("untagged observation captured an exemplar")
	}
	h.ObserveExemplar(5, "s-1")
	id, v, tns, ok := h.Exemplar(0)
	if !ok || id != "s-1" || v != 5 || tns == 0 {
		t.Fatalf("exemplar = (%q,%d,%d,%v), want s-1/5 captured", id, v, tns, ok)
	}
	h.ObserveExemplar(7, "s-2") // same bucket
	if id, _, _, _ := h.Exemplar(0); id != "s-2" {
		t.Fatalf("exemplar not replaced: %q", id)
	}
	h.ObserveExemplar(5000, "s-inf") // +Inf bucket
	if id, _, _, ok := h.Exemplar(3); !ok || id != "s-inf" {
		t.Fatal("+Inf bucket did not capture")
	}
}

// TestExemplarFloor pins the tail-only mode: buckets below the floor
// never capture, buckets at or above it do.
func TestExemplarFloor(t *testing.T) {
	h := NewValues(10, 100, 1000)
	h.EnableExemplars(100) // capture only the le=100 bucket and up
	h.ObserveExemplar(5, "s-low")
	if _, _, _, ok := h.Exemplar(0); ok {
		t.Fatal("bucket below floor captured an exemplar")
	}
	h.ObserveExemplar(50, "s-tail")
	if id, _, _, ok := h.Exemplar(1); !ok || id != "s-tail" {
		t.Fatal("bucket at floor did not capture")
	}
}

// TestExemplarDisabledIsNoop: without EnableExemplars the tagged form
// is just Observe.
func TestExemplarDisabledIsNoop(t *testing.T) {
	h := NewValues(10)
	h.ObserveExemplar(5, "s-1")
	if h.Snapshot().Count != 1 {
		t.Fatal("observation lost")
	}
	if _, _, _, ok := h.Exemplar(0); ok {
		t.Fatal("disabled histogram captured an exemplar")
	}
}

// TestExemplarObserveAllocFree extends the D13 pin to the tagged
// observation: capturing an exemplar must not allocate.
func TestExemplarObserveAllocFree(t *testing.T) {
	h := NewDuration()
	h.EnableExemplars(0)
	id := "s-alloc"
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveExemplar(int64(time.Millisecond), id)
	}); allocs != 0 {
		t.Errorf("ObserveExemplar allocates %.2f per call, want 0", allocs)
	}
}

// TestExemplarExposition renders a registry with captured exemplars in
// both formats: the OpenMetrics output carries the exemplar suffix and
// the `# EOF` terminator, while the classic 0.0.4 output strips
// exemplars entirely (its parser reads the `# {...}` suffix as a
// malformed timestamp and fails the whole scrape).
func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := NewDuration()
	h.EnableExemplars(0)
	r.Histogram("app_latency_seconds", "latency", "", h)
	h.ObserveExemplar(int64(3*time.Millisecond), "s-42")

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	text := om.String()
	ValidateExposition(t, text)
	// One bucket line must carry `# {session_id="s-42"} 0.003... ts`.
	re := regexp.MustCompile(`app_latency_seconds_bucket\{le="[^"]+"\} \d+ # \{session_id="s-42"\} 0\.003\d* \d+\.\d+`)
	if !re.MatchString(text) {
		t.Fatalf("no exemplar rendered:\n%s", text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("OpenMetrics output not # EOF-terminated:\n%s", text)
	}

	var classic bytes.Buffer
	if err := r.WriteText(&classic); err != nil {
		t.Fatal(err)
	}
	ValidateExposition(t, classic.String())
	if strings.Contains(classic.String(), " # {") {
		t.Fatalf("classic 0.0.4 exposition leaked an exemplar:\n%s", classic.String())
	}
}

// TestExemplarIDEscaped: ObserveExemplar is a generic API, so an
// ID carrying quote/backslash/newline bytes must render escaped
// instead of corrupting the exposition.
func TestExemplarIDEscaped(t *testing.T) {
	r := NewRegistry()
	h := NewDuration()
	h.EnableExemplars(0)
	r.Histogram("app_latency_seconds", "latency", "", h)
	h.ObserveExemplar(int64(3*time.Millisecond), "s-\"q\\b\nnl")

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	ValidateExposition(t, text)
	if !strings.Contains(text, `session_id="s-\"q\\b\nnl"`) {
		t.Fatalf("exemplar ID not escaped:\n%s", text)
	}
}

// TestOpenMetricsCounterFamilies: OpenMetrics names a counter family
// without the _total suffix its samples carry; the classic format
// keeps the full name in both places.
func TestOpenMetricsCounterFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests served", "").Add(7)

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	text := om.String()
	ValidateExposition(t, text)
	for _, want := range []string{
		"# TYPE app_requests counter\n",
		"app_requests_total 7\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("OpenMetrics output missing %q:\n%s", want, text)
		}
	}

	var classic bytes.Buffer
	if err := r.WriteText(&classic); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(classic.String(), "# TYPE app_requests_total counter\n") {
		t.Fatalf("classic output renamed the family:\n%s", classic.String())
	}
}

// TestCheckExpositionRejectsMalformedExemplars gives the validator
// teeth on the new syntax.
func TestCheckExpositionRejectsMalformedExemplars(t *testing.T) {
	head := "# HELP h a\n# TYPE h histogram\n"
	cases := map[string]string{
		"exemplar on _sum":      head + `h_bucket{le="+Inf"} 1` + "\n" + `h_sum 1 # {session_id="s"} 1 2` + "\n" + "h_count 1\n",
		"exemplar on counter":   "# HELP c a\n# TYPE c counter\n" + `c{x="1"} 1 # {session_id="s"} 1` + "\n",
		"missing braces":        head + `h_bucket{le="+Inf"} 1 # session_id="s" 1` + "\n" + "h_count 1\n",
		"unquoted label value":  head + `h_bucket{le="+Inf"} 1 # {session_id=s} 1` + "\n" + "h_count 1\n",
		"bad label name":        head + `h_bucket{le="+Inf"} 1 # {9id="s"} 1` + "\n" + "h_count 1\n",
		"non-numeric value":     head + `h_bucket{le="+Inf"} 1 # {session_id="s"} nope` + "\n" + "h_count 1\n",
		"too many fields":       head + `h_bucket{le="+Inf"} 1 # {session_id="s"} 1 2 3` + "\n" + "h_count 1\n",
		"empty exemplar suffix": head + `h_bucket{le="+Inf"} 1 # ` + "\n" + "h_count 1\n",
		"content after EOF":     head + `h_bucket{le="+Inf"} 1` + "\n" + "h_count 1\n# EOF\nh_sum 1\n",
	}
	for name, text := range cases {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: validator accepted malformed exemplar:\n%s", name, text)
		}
	}
	// A well-formed exemplar without a timestamp is legal.
	ok := head + `h_bucket{le="+Inf"} 1 # {session_id="s-1"} 0.5` + "\n" + "h_count 1\n"
	if err := CheckExposition(ok); err != nil {
		t.Errorf("validator rejected legal exemplar: %v", err)
	}
}

// TestExemplarConcurrentScrape hammers tagged observations against
// OpenMetrics scrapes (the format that renders exemplars); under -race
// this pins the TryLock write path vs the locked scrape read path.
func TestExemplarConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	h := NewDuration()
	h.EnableExemplars(0)
	r.Histogram("app_latency_seconds", "latency", "", h)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	ids := [4]string{"s-0", "s-1", "s-2", "s-3"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveExemplar(int64(time.Microsecond)<<uint(i), ids[i])
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		if err := CheckExposition(buf.String()); err != nil {
			t.Fatalf("scrape %d malformed under load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRegisterRuntime scrapes the runtime bridge and checks the
// families render well-formed (including the GC pause HistogramFunc).
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	ValidateExposition(t, text)
	for _, want := range []string{
		"moqod_go_heap_objects_bytes",
		"moqod_go_goroutines",
		"moqod_go_sched_latency_seconds_p99",
		"moqod_go_gc_pause_seconds_bucket",
		`moqod_go_gc_pause_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("runtime scrape missing %q:\n%s", want, text)
		}
	}
}
