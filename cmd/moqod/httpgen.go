package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// HTTP load generator: drives a running moqod node (or a pair) from
// outside, as clients would; the handoff smoke test uses it to show a
// drain is invisible to clients. The drain-aware
// part is the retry policy: a 429 means "this node, later" and retries
// in place with backoff; a 503 (draining or bootstrapping) or a
// connection error means "not this node" — the generator flips its
// preferred node to the failover address and retries there. Sessions
// stay sticky to the node that created them: a drained node keeps
// answering polls for its in-flight sessions, so only new creates move.

// httpNode is one target node's base URL.
type httpNode struct {
	base string
}

func newHTTPNode(addr string) httpNode {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return httpNode{base: strings.TrimRight(addr, "/")}
}

// httpLoadgen drives sessions over HTTP against a primary node with an
// optional failover node.
type httpLoadgen struct {
	nodes     []httpNode
	preferred atomic.Int32 // index into nodes new creates try first
	client    *http.Client

	failovers atomic.Uint64 // creates that moved to another node
	retried   atomic.Uint64 // create attempts retried (429 or 503)
}

// runHTTPLoadgen drives total sessions (concurrency at a time) against
// the target node, failing over to failoverAddr when the target drains
// or dies. It fails if any session sees a client-visible error — shed
// (429) and redirected (503/refused) creates are expected and retried,
// so across a graceful handoff the count must be zero.
func runHTTPLoadgen(targetAddr, failoverAddr string, concurrency, total int, sf float64, seed int64) error {
	g := &httpLoadgen{
		nodes:  []httpNode{newHTTPNode(targetAddr)},
		client: &http.Client{Timeout: 30 * time.Second},
	}
	if failoverAddr != "" {
		g.nodes = append(g.nodes, newHTTPNode(failoverAddr))
	}
	blocks := workload.MustTPCHBlocks(sf)
	fmt.Printf("http loadgen: %d sessions, %d concurrent, target %s, failover %q\n",
		total, concurrency, targetAddr, failoverAddr)

	var (
		mu        sync.Mutex
		failures  int
		sampleErr []error
		lats      []time.Duration
	)
	work := make(chan string)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(worker)))
			for name := range work {
				t0 := time.Now()
				err := g.driveSession(name, rng)
				mu.Lock()
				if err != nil {
					failures++
					if len(sampleErr) < 3 {
						sampleErr = append(sampleErr, err)
					}
				} else {
					lats = append(lats, time.Since(t0))
				}
				mu.Unlock()
			}
		}(c)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < total; i++ {
		work <- blocks[rng.Intn(len(blocks))].Name
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("http loadgen: %d/%d sessions ok in %v (%d create retries, %d failovers, %d errors)\n",
		total-failures, total, elapsed.Round(time.Millisecond),
		g.retried.Load(), g.failovers.Load(), failures)
	if failures > 0 {
		return fmt.Errorf("http loadgen: %d/%d sessions failed (e.g. %v)", failures, total, sampleErr)
	}
	return nil
}

// driveSession creates a session (with drain-aware retry), waits for it
// to reach its target, and closes it — all against whichever node
// accepted the create.
func (g *httpLoadgen) driveSession(block string, rng *rand.Rand) error {
	node, id, err := g.createWithRetry(block, rng)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := g.getJSON(node, "/sessions/"+id, &st); err != nil {
			return fmt.Errorf("poll %s: %w", id, err)
		}
		switch st.State {
		case "at-target", "selected":
			_, _, err := g.do(node, http.MethodDelete, "/sessions/"+id, nil)
			return err
		case "failed", "expired", "timed-out":
			return fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s: target not reached in time (state %s)", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// createWithRetry posts the create, absorbing 429 (retry same node) and
// 503/connection errors (flip to the other node) with jittered backoff.
// Returns the node that accepted the session along with its id.
func (g *httpLoadgen) createWithRetry(block string, rng *rand.Rand) (httpNode, string, error) {
	const maxTries = 100
	backoff := 5 * time.Millisecond
	body, _ := json.Marshal(map[string]string{"block": block})
	var lastErr error
	for tries := 0; tries < maxTries; tries++ {
		idx := int(g.preferred.Load())
		node := g.nodes[idx]
		status, resp, err := g.do(node, http.MethodPost, "/sessions", body)
		switch {
		case err == nil && status == http.StatusCreated:
			var out struct {
				ID string `json:"id"`
			}
			if jerr := json.Unmarshal(resp, &out); jerr != nil || out.ID == "" {
				return node, "", fmt.Errorf("create: bad response %q", resp)
			}
			return node, out.ID, nil
		case err == nil && status == http.StatusTooManyRequests:
			// Overload is transient on this node; stay and back off.
			lastErr = fmt.Errorf("create: 429 %s", resp)
			g.retried.Add(1)
		case err != nil || status == http.StatusServiceUnavailable:
			// Draining, bootstrapping, or dead: this node is not taking
			// new sessions — move to the other one if we have it.
			if err != nil {
				lastErr = fmt.Errorf("create: %w", err)
			} else {
				lastErr = fmt.Errorf("create: 503 %s", resp)
			}
			g.retried.Add(1)
			if len(g.nodes) > 1 {
				next := int32((idx + 1) % len(g.nodes))
				if g.preferred.CompareAndSwap(int32(idx), next) {
					g.failovers.Add(1)
				}
			}
		default:
			return node, "", fmt.Errorf("create: unexpected status %d: %s", status, resp)
		}
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		time.Sleep(d)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
	return httpNode{}, "", fmt.Errorf("create: gave up after %d tries: %w", maxTries, lastErr)
}

func (g *httpLoadgen) do(node httpNode, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, node.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, bytes.TrimSpace(data), nil
}

func (g *httpLoadgen) getJSON(node httpNode, path string, v any) error {
	status, data, err := g.do(node, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return json.Unmarshal(data, v)
}
