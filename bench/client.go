package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/cost"
)

// Routes the harness counts attempted / succeeded / failed requests for.
var routes = []string{"create", "poll", "bounds", "select", "delete", "readyz"}

type routeCount struct{ Attempted, Succeeded, Failed int }

func (c *routeCount) add(o routeCount) {
	c.Attempted += o.Attempted
	c.Succeeded += o.Succeeded
	c.Failed += o.Failed
}

// recorder accumulates one client goroutine's request accounting; the
// run merges the recorders when the timed phase ends.
type recorder struct {
	Routes    map[string]*routeCount
	RouteMS   map[string][]float64 // round-trip per request, body read included
	LateMS    []float64            // how far behind its back-off schedule each poll was sent
	PollBytes int64
}

func newRecorder() *recorder {
	r := &recorder{Routes: map[string]*routeCount{}, RouteMS: map[string][]float64{}}
	for _, name := range routes {
		r.Routes[name] = &routeCount{}
	}
	return r
}

func (r *recorder) merge(o *recorder) {
	for name, c := range o.Routes {
		r.Routes[name].add(*c)
	}
	for name, ms := range o.RouteMS {
		r.RouteMS[name] = append(r.RouteMS[name], ms...)
	}
	r.LateMS = append(r.LateMS, o.LateMS...)
	r.PollBytes += o.PollBytes
}

// client is one closed-loop simulated user on one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		rec: newRecorder(),
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// call performs one request and accounts for it. Any transport error or
// status other than want — 429 and 503 included — counts as failed; the
// timed phases never retry.
func (c *client) call(ctx context.Context, parent int, session, route, method, path string, body []byte, want int) ([]byte, error) {
	cnt := c.rec.Routes[route]
	cnt.Attempted++
	start := time.Now()
	data, status, err := c.roundTrip(ctx, method, path, body)
	end := time.Now()
	c.tr.add(0, parent, "api", route, session, start, end)
	if err == nil && status != want {
		err = fmt.Errorf("status %d: %.200s", status, bytes.TrimSpace(data))
	}
	if err != nil {
		cnt.Failed++
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	cnt.Succeeded++
	c.rec.RouteMS[route] = append(c.rec.RouteMS[route], ms(end.Sub(start)))
	return data, nil
}

func (c *client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// pollBody is what the harness reads of a GET /sessions/{id} response.
type pollBody struct {
	State           string `json:"state"`
	Steps           int    `json:"steps"`
	Resolution      int    `json:"resolution"`
	Provenance      string `json:"provenance"`
	FirstFrontierUs int64  `json:"firstFrontierUs"`
	Error           string `json:"error"`
	Frontier        []struct {
		Cost []float64 `json:"cost"`
	} `json:"frontier"`
}

// The poller's deterministic back-off: the pause before the next poll
// starts at backoffStart, doubles after every poll up to backoffCap, and
// resets after every bounds change.
const (
	backoffStart = time.Millisecond
	backoffCap   = 32 * time.Millisecond
	// sessionDeadline fails a session that is still not done.
	sessionDeadline = 60 * time.Second
)

// pacer schedules one session's polls and measures how far behind that
// schedule the poller runs — the load generator's own health.
type pacer struct {
	pause time.Duration // the pause that led to due; 0 before the first poll
	due   time.Time     // when the next poll is due; zero = at once
}

// arm is called when a poll's response has been read: the next poll is
// due one pause later, and the pause doubles up to the cap.
func (p *pacer) arm(now time.Time) {
	switch {
	case p.pause == 0:
		p.pause = backoffStart
	case p.pause*2 > backoffCap:
		p.pause = backoffCap
	default:
		p.pause *= 2
	}
	p.due = now.Add(p.pause)
}

// late reports how long after its due time a poll sent at now goes out;
// ok is false for a poll that was due at once.
func (p *pacer) late(now time.Time) (d time.Duration, ok bool) {
	if p.due.IsZero() {
		return 0, false
	}
	return now.Sub(p.due), true
}

// reset restarts the schedule: the next poll goes out at once.
func (p *pacer) reset() { *p = pacer{} }

// sessionResult is the outcome and the client-side timers of one session.
type sessionResult struct {
	Index       int
	Boot        int // which boot of the node served it (restart workload)
	ID          string
	Fail        string // empty when the session succeeded
	FirstMS     float64
	TargetMS    float64
	RegimeMS    []float64
	TargetBytes []float64 // size of every poll body that reported at-target on an unbounded regime
	ServerFFUs  int64     // firstFrontierUs as the server reported it
	Provenance  string
	Polls       int
}

// medianCost returns the median of a frontier's cost vectors: the middle
// element in lexicographic order.
func medianCost(vs []cost.Vector) cost.Vector {
	s := append([]cost.Vector(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return lexLess(s[i], s[j]) })
	return s[len(s)/2].Clone()
}

// medianPlanCost is medianCost over a polled frontier.
func medianPlanCost(b *pollBody) cost.Vector {
	vs := make([]cost.Vector, len(b.Frontier))
	for i, p := range b.Frontier {
		vs[i] = p.Cost
	}
	return medianCost(vs)
}

// runSession plays one script against moqod and checks what comes back.
func (c *client) runSession(ctx context.Context, sc sessionScript, chk *checker) (res sessionResult) {
	res.Index = sc.Index
	ctx, cancel := context.WithTimeout(ctx, sessionDeadline)
	defer cancel()
	spanID := c.tr.newID()
	sessStart := time.Now()
	defer func() { c.tr.add(spanID, 0, "client", "session", res.ID, sessStart, time.Now()) }()
	fail := func(err error) sessionResult {
		res.Fail = err.Error()
		return res
	}

	created := time.Now()
	data, err := c.call(ctx, spanID, "", "create", http.MethodPost, "/sessions", []byte(sc.Query.key()), http.StatusCreated)
	if err != nil {
		return fail(err)
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &cr); err != nil || cr.ID == "" {
		return fail(fmt.Errorf("create: bad response %.100q", data))
	}
	res.ID = cr.ID
	path := "/sessions/" + cr.ID

	// awaitTarget polls until the current regime is at target — or, with
	// stopAtFrontier, until the first non-empty frontier shows.
	var (
		pace     pacer
		lastPoll time.Time // when the latest poll response was read
	)
	sawFrontier := false
	awaitTarget := func(stopAtFrontier bool) (*pollBody, int, error) {
		pace.reset()
		for {
			time.Sleep(time.Until(pace.due))
			if late, ok := pace.late(time.Now()); ok {
				c.rec.LateMS = append(c.rec.LateMS, ms(late))
			}
			data, err := c.call(ctx, spanID, cr.ID, "poll", http.MethodGet, path, nil, http.StatusOK)
			lastPoll = time.Now()
			pace.arm(lastPoll)
			if err != nil {
				return nil, 0, err
			}
			res.Polls++
			c.rec.PollBytes += int64(len(data))
			var b pollBody
			if err := json.Unmarshal(data, &b); err != nil {
				return nil, 0, fmt.Errorf("poll: %w", err)
			}
			if !sawFrontier && len(b.Frontier) > 0 {
				sawFrontier = true
				res.FirstMS = ms(lastPoll.Sub(created))
			}
			switch b.State {
			case "at-target":
				return &b, len(data), nil
			case "refining":
				if stopAtFrontier && len(b.Frontier) > 0 {
					return &b, len(data), nil
				}
			default:
				return nil, 0, fmt.Errorf("session ended %s: %s", b.State, b.Error)
			}
		}
	}

	var (
		body      *pollBody
		bounds    cost.Vector
		regime    int
		prevSteps int
	)
	// converge waits for the target of the current regime and checks it.
	converge := func() error {
		b, n, err := awaitTarget(false)
		if err != nil {
			return err
		}
		if err := chk.atTarget(sc, b, bounds, regime, prevSteps); err != nil {
			return err
		}
		body, prevSteps = b, b.Steps
		if bounds == nil {
			res.TargetBytes = append(res.TargetBytes, float64(n))
		}
		return nil
	}
	// drag posts new bounds, waits for the regime's target and times it.
	drag := func(b cost.Vector) error {
		payload, err := json.Marshal(map[string]any{"bounds": []float64(b)})
		if err != nil {
			return err
		}
		sent := time.Now()
		if _, err := c.call(ctx, spanID, cr.ID, "bounds", http.MethodPost, path+"/bounds", payload, http.StatusOK); err != nil {
			return err
		}
		bounds, regime = b, regime+1
		if err := converge(); err != nil {
			return err
		}
		res.RegimeMS = append(res.RegimeMS, ms(lastPoll.Sub(sent)))
		return nil
	}

	if sc.Interactive {
		b, _, err := awaitTarget(true)
		if err != nil {
			return fail(err)
		}
		next := medianPlanCost(b).Scale(tightScale)
		for r := 1; r <= interactiveRegimes; r++ {
			if r == interactiveRegimes {
				next = nil
			}
			if err := drag(next); err != nil {
				return fail(err)
			}
			if r == 1 {
				res.TargetMS = ms(lastPoll.Sub(created))
			}
			if next != nil {
				next = next.Scale(relaxScale)
			}
		}
	} else {
		if err := converge(); err != nil {
			return fail(err)
		}
		res.TargetMS = ms(lastPoll.Sub(created))
		for d := 0; d < sc.Drags; d++ {
			if err := drag(medianPlanCost(body).Scale(dragScale)); err != nil {
				return fail(err)
			}
		}
	}
	res.ServerFFUs, res.Provenance = body.FirstFrontierUs, body.Provenance

	if sc.Select {
		payload := fmt.Sprintf(`{"index":0,"steps":%d}`, body.Steps)
		_, err = c.call(ctx, spanID, cr.ID, "select", http.MethodPost, path+"/select", []byte(payload), http.StatusOK)
	} else {
		_, err = c.call(ctx, spanID, cr.ID, "delete", http.MethodDelete, path, nil, http.StatusOK)
	}
	if err != nil {
		return fail(err)
	}
	return res
}
