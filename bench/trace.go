package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one recorded interval of the traced run. Spans are recorded by
// the harness around its calls into moqod (over HTTP) and into each
// layer's public functions (the in-process probes); nothing inside the
// program under test is instrumented by this benchmark.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0 = root
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans in memory and writes them out once, at the end
// of the run. A nil *tracer records nothing, so the untraced run pays a
// nil check per call site and no more.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name their parent before the
// parent's own interval has ended.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id (0 reserves one now)
// and returns the id.
func (t *tracer) add(id, parent int, layer, name, session string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Session: session,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(0, parent, layer, name, "", start, end)
	return end.Sub(start)
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
