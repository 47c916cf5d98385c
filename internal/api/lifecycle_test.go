package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faultfs"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/workload"
)

func storeSvcConfig(dir string) service.Config {
	return service.Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 3,
			TargetPrecision:  1.05,
			PrecisionStep:    0.1,
		},
		Workers:       2,
		CacheCapacity: 16,
		IdleTimeout:   -1,
		StoreDir:      dir,
	}
}

// newNode builds a full node — service (store-backed when dir != ""),
// API, HTTP server — the way moqod wires them.
func newNode(t *testing.T, dir string) (*API, *service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(storeSvcConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim(), DrainGrace: 2 * time.Second})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	return a, svc, ts
}

func mustBlock(t *testing.T, name string) *query.Query {
	t.Helper()
	blk, ok := workload.Find(workload.MustTPCHBlocks(1), name)
	if !ok {
		t.Fatalf("unknown block %s", name)
	}
	return blk.Query
}

// converge drives one session straight against the service and returns
// its status plus the frontier rendered as signature+cost strings,
// sorted, for cross-node equality checks.
func converge(t *testing.T, svc *service.Service, block string) (service.Status, []string) {
	t.Helper()
	id, err := svc.Create(mustBlock(t, block))
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.WaitTargetTimeout(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.AtTarget {
		t.Fatalf("session ended in %v", st.State)
	}
	var rendered []string
	for _, p := range st.Frontier {
		rendered = append(rendered, p.Signature()+"|"+p.Cost.String())
	}
	sort.Strings(rendered)
	if err := svc.Close(id); err != nil {
		t.Fatal(err)
	}
	return st, rendered
}

// postJSON posts a body, decodes the reply into v (when non-nil), and
// returns the status code and headers.
func postJSON(t *testing.T, url, body string, v any) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header
}

// getBody GETs a URL and returns the status code and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestLifecycleBootstrappingSurface: before Ready, health answers, the
// session surface replies the structured 503-bootstrapping, and
// readiness says no.
func TestLifecycleBootstrappingSurface(t *testing.T) {
	a := New(Config{Seed: 1, Dim: 3})
	ts := httptest.NewServer(a.Mux())
	defer ts.Close()
	if a.Phase() != Bootstrapping {
		t.Fatalf("fresh API in phase %v", a.Phase())
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while bootstrapping: %d, want 200", code)
	}
	code, body := getBody(t, ts.URL+"/readyz")
	var rdy struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &rdy); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || rdy.Ready || rdy.Reason != "bootstrapping" {
		t.Errorf("readyz while bootstrapping: %d %+v", code, rdy)
	}

	var errBody struct {
		Code              string `json:"code"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	code, hdr := postJSON(t, ts.URL+"/sessions", `{"block":"Q4"}`, &errBody)
	if code != http.StatusServiceUnavailable || errBody.Code != "bootstrapping" || errBody.RetryAfterSeconds != 1 {
		t.Errorf("create while bootstrapping: %d %+v", code, errBody)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q, want \"1\"", hdr.Get("Retry-After"))
	}
	if code := getJSON(t, ts.URL+"/statz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("statz while bootstrapping: %d, want 503", code)
	}
}

// TestReadyzDoesNotWaitForTheWriter: with the store's writer parked
// inside an fsync — holding the store mutex, as it does through every
// append, sync and compaction — /readyz still answers 200.
func TestReadyzDoesNotWaitForTheWriter(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	cfg := storeSvcConfig(t.TempDir())
	cfg.StoreOptions.FS = inj
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim()})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	defer svc.Shutdown()
	defer ts.Close()
	converge(t, svc, "Q4") // writes one record through to the store
	st := svc.Store()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	inj.SetScript(func(op faultfs.Op, _ string, _ uint64) faultfs.Fault {
		if op == faultfs.OpSync {
			close(entered)
			<-release
		}
		return faultfs.Fault{}
	})
	flushed := make(chan error, 1)
	go func() { flushed <- st.Flush() }()
	<-entered
	inj.SetScript(nil)

	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Errorf("readyz beside a parked writer: %d, want 200", code)
		}
	case <-time.After(30 * time.Second):
		t.Error("readyz waited for the store mutex the parked fsync holds")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleDrainEndpoint drives the full phase walk over HTTP:
// ready → POST /admin/drain → draining → drained, with readiness
// flipping false the moment the trigger is acknowledged, creates
// answering the structured 503-draining, and the read surface (polls,
// /statz, /metrics) still served afterwards.
func TestLifecycleDrainEndpoint(t *testing.T) {
	a, svc, ts := newNode(t, "")
	driveOne(t, ts, "Q4")
	// A second session converges but is never selected: it stays live, is
	// counted converged by the drain sweep, and must remain pollable
	// afterwards (a select finishes and archives a session, so only an
	// unselected one exercises the poll-after-drain surface).
	id, err := svc.Create(mustBlock(t, "Q12"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.WaitTargetTimeout(id, time.Minute); err != nil || st.State != service.AtTarget {
		t.Fatalf("wait: %v %v", st.State, err)
	}

	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	var drainResp struct {
		Phase string `json:"phase"`
	}
	code, _ := postJSON(t, ts.URL+"/admin/drain", "", &drainResp)
	// The drain runs off the request, so the echoed phase may already be
	// the settled one.
	if code != http.StatusAccepted || (drainResp.Phase != "draining" && drainResp.Phase != "drained") {
		t.Fatalf("drain trigger: %d %+v", code, drainResp)
	}
	// Readiness must be false the moment the 202 is on the wire.
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain trigger: %d, want 503", code)
	}
	a.Drain() // block until the async drain completes
	if a.Phase() != Drained {
		t.Fatalf("phase %v after Drain returned", a.Phase())
	}

	var errBody struct {
		Code string `json:"code"`
	}
	code, hdr := postJSON(t, ts.URL+"/sessions", `{"block":"Q12"}`, &errBody)
	if code != http.StatusServiceUnavailable || errBody.Code != "draining" {
		t.Errorf("create on drained node: %d %+v", code, errBody)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Errorf("Retry-After %q, want \"1\"", hdr.Get("Retry-After"))
	}

	// A second trigger is idempotent and reports the settled state.
	code, _ = postJSON(t, ts.URL+"/admin/drain", "", &drainResp)
	if code != http.StatusOK || drainResp.Phase != "drained" {
		t.Errorf("re-drain: %d %+v", code, drainResp)
	}

	// The read surface survives the drain: polls, statz, metrics.
	if code := getJSON(t, ts.URL+"/sessions/"+id, nil); code != http.StatusOK {
		t.Errorf("poll after drain: %d", code)
	}
	var statz struct {
		Draining  bool
		Failed    uint64
		Lifecycle Lifecycle
	}
	if code := getJSON(t, ts.URL+"/statz", &statz); code != http.StatusOK {
		t.Errorf("statz after drain: %d", code)
	}
	if !statz.Draining || statz.Lifecycle.Phase != "drained" {
		t.Errorf("statz after drain: %+v", statz)
	}
	if statz.Failed != 0 {
		t.Errorf("drained node reports %d failed sessions", statz.Failed)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics after drain: %d", code)
	}
	for _, want := range []string{
		"moqod_draining 1\n",
		`moqod_lifecycle_phase{phase="drained"} 1`,
		`moqod_lifecycle_phase{phase="ready"} 0`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics after drain missing %q", want)
		}
	}
}

// TestStoreExportEndpoints pins the donor HTTP surface a joiner pulls
// from: manifest JSON, raw segment bytes, offset resume, 409 on a stale
// generation, 400 on bad params, 404 without a store.
func TestStoreExportEndpoints(t *testing.T) {
	_, svc, ts := newNode(t, t.TempDir())
	converge(t, svc, "Q4")
	if err := svc.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	var man struct {
		Generation uint64
		CfgEcho    string
		Segments   []struct{ Seq, Size int64 }
	}
	if code := getJSON(t, ts.URL+"/admin/store/manifest", &man); code != http.StatusOK {
		t.Fatalf("manifest: %d", code)
	}
	if len(man.Segments) == 0 || man.CfgEcho == "" {
		t.Fatalf("manifest after a persisted session: %+v", man)
	}
	seg := man.Segments[0]
	segURL := func(gen uint64, off int64) string {
		return ts.URL + "/admin/store/segments/" + strconv.FormatInt(seg.Seq, 10) +
			"?gen=" + strconv.FormatUint(gen, 10) + "&off=" + strconv.FormatInt(off, 10)
	}
	code, whole := getBody(t, segURL(man.Generation, 0))
	if code != http.StatusOK || int64(len(whole)) != seg.Size {
		t.Fatalf("segment read: %d, %d/%d bytes", code, len(whole), seg.Size)
	}
	code, rest := getBody(t, segURL(man.Generation, seg.Size/2))
	if code != http.StatusOK || !bytes.Equal(rest, whole[seg.Size/2:]) {
		t.Fatalf("offset read (status %d) is not the suffix of the whole read", code)
	}
	if code, _ := getBody(t, segURL(man.Generation+1, 0)); code != http.StatusConflict {
		t.Errorf("stale generation: %d, want 409", code)
	}
	if code, _ := getBody(t, ts.URL+"/admin/store/segments/nope?gen=0"); code != http.StatusBadRequest {
		t.Errorf("bad seq: %d, want 400", code)
	}
	if code, _ := getBody(t, segURL(man.Generation, -1)); code != http.StatusBadRequest {
		t.Errorf("negative off: %d, want 400", code)
	}

	_, _, noStore := newNode(t, "")
	if code := getJSON(t, noStore.URL+"/admin/store/manifest", nil); code != http.StatusNotFound {
		t.Errorf("manifest without store: %d, want 404", code)
	}
}

// TestHandoffEndToEnd is the PR's acceptance pin, in process: a joiner
// bootstrapped over HTTP from a live donor serves the donor's query
// warm with a frontier identical to the donor's own warm answer; the
// drained donor keeps answering polls and exports while the joiner
// takes the creates.
func TestHandoffEndToEnd(t *testing.T) {
	aDonor, svcDonor, tsDonor := newNode(t, t.TempDir())
	cold, _ := converge(t, svcDonor, "Q4")
	if cold.WarmStarted {
		t.Fatal("first donor session warm-started in a fresh store")
	}
	_, want := converge(t, svcDonor, "Q4") // the donor's cached answer
	if err := svcDonor.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	echo, err := core.ConfigFingerprint(storeSvcConfig("").Opt)
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	res, err := bootstrap.Pull(bootstrap.Options{Peer: tsDonor.URL, Dir: dirB, CfgEcho: echo})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments == 0 || res.Frames == 0 || res.Bytes == 0 {
		t.Fatalf("pull moved nothing: %+v", res)
	}

	svcJoiner, err := service.New(storeSvcConfig(dirB))
	if err != nil {
		t.Fatal(err)
	}
	defer svcJoiner.Shutdown()
	if st := svcJoiner.Stats(); st.Store.Loaded == 0 {
		t.Fatalf("joiner replayed nothing: %+v", st.Store)
	}
	warm, got := converge(t, svcJoiner, "Q4")
	if !warm.WarmStarted {
		t.Fatal("joiner served the donor's query cold")
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("frontier sizes: joiner %d, donor %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("joiner frontier diverges from donor's:\n  %s\nvs\n  %s", got[i], want[i])
		}
	}

	// Drain the donor: creates answer 503-draining, but it still serves
	// statz and store exports — a late joiner could still pull from it —
	// and reports zero failed sessions.
	aDonor.Drain()
	var errBody struct {
		Code string `json:"code"`
	}
	if code, _ := postJSON(t, tsDonor.URL+"/sessions", `{"block":"Q4"}`, &errBody); code != http.StatusServiceUnavailable || errBody.Code != "draining" {
		t.Errorf("create on drained donor: %d %+v", code, errBody)
	}
	if code := getJSON(t, tsDonor.URL+"/admin/store/manifest", nil); code != http.StatusOK {
		t.Errorf("drained donor stopped exporting: %d", code)
	}
	if st := svcDonor.Stats(); st.Failed != 0 {
		t.Errorf("drained donor reports %d failed sessions", st.Failed)
	}
	if _, err := svcJoiner.Create(mustBlock(t, "Q12")); err != nil {
		t.Errorf("joiner refused a create during donor drain: %v", err)
	}
}

// drainClient is a drain-aware client of a pair of nodes, the policy a
// client follows across a handoff. A 429 means "this node, later": the
// create retries in place with jittered backoff. A 503 (draining or
// bootstrapping) or a connection error means "not this node": new
// creates move to the other node. Sessions stay on the node that
// created them, since a drained node keeps answering polls for its
// sessions.
type drainClient struct {
	nodes     [2]string // base URLs
	preferred atomic.Int32
	client    *http.Client
}

func (c *drainClient) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// create posts a create for block and returns the node that took it
// and the session's ID; any status the policy does not absorb is an
// error.
func (c *drainClient) create(block string, rng *rand.Rand) (int, string, error) {
	backoff := 5 * time.Millisecond
	body := []byte(`{"block":"` + block + `"}`)
	for tries := 0; tries < 100; tries++ {
		node := int(c.preferred.Load())
		status, resp, err := c.do(http.MethodPost, c.nodes[node]+"/sessions", body)
		switch {
		case err == nil && status == http.StatusCreated:
			var out struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &out); err != nil || out.ID == "" {
				return node, "", fmt.Errorf("create %s: bad response %q", block, resp)
			}
			return node, out.ID, nil
		case err == nil && status == http.StatusTooManyRequests:
			// Overload passes; stay on this node.
		case err != nil || status == http.StatusServiceUnavailable:
			c.preferred.CompareAndSwap(int32(node), int32(1-node))
		default:
			return node, "", fmt.Errorf("create %s: status %d: %s", block, status, resp)
		}
		time.Sleep(backoff/2 + time.Duration(rng.Int63n(int64(backoff))))
		backoff = min(2*backoff, time.Second)
	}
	return 0, "", fmt.Errorf("create %s: gave up", block)
}

// finish polls session id on node to its target and deletes it.
func (c *drainClient) finish(node int, id string) error {
	url := c.nodes[node] + "/sessions/" + id
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		status, resp, err := c.do(http.MethodGet, url, nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("poll %s: status %d: %v %s", id, status, err, resp)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return fmt.Errorf("poll %s: %v", id, err)
		}
		switch st.State {
		case "at-target":
			if status, resp, err := c.do(http.MethodDelete, url, nil); err != nil || status != http.StatusOK {
				return fmt.Errorf("delete %s: status %d: %v %s", id, status, err, resp)
			}
			return nil
		case "failed", "expired", "timed-out":
			return fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("session %s: target not reached in time", id)
}

// TestHandoffDrainUnderLoad drains a donor while drain-aware clients
// drive the donor and a second node over HTTP: no client sees an error,
// the donor reaches drained with no failed session, and the second node
// takes the creates that failed over. The drain starts right after the
// donor's drainAfter-th create, and that session is polled only once
// the drain has finished, so at least one session is live on the donor
// throughout it.
func TestHandoffDrainUnderLoad(t *testing.T) {
	const clients, sessions, drainAfter = 6, 36, 8
	aDonor, _, tsDonor := newNode(t, t.TempDir())
	_, _, tsJoiner := newNode(t, t.TempDir())
	c := &drainClient{nodes: [2]string{tsDonor.URL, tsJoiner.URL}, client: &http.Client{Timeout: 30 * time.Second}}
	blocks := []string{"Q3", "Q4", "Q12", "Q14"}

	var donorCreates, done atomic.Int32
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for block := range work {
				node, id, err := c.create(block, rng)
				if err != nil {
					t.Error(err)
					continue
				}
				if node == 0 && donorCreates.Add(1) == drainAfter {
					if status, resp, err := c.do(http.MethodPost, tsDonor.URL+"/admin/drain", nil); err != nil || status != http.StatusAccepted {
						t.Errorf("drain trigger: status %d: %v %s", status, err, resp)
					}
					// The drain runs off the request. Hold this session
					// until it has finished: the sweep must find it live,
					// and the drained donor must still poll and delete it.
					aDonor.Drain()
				}
				if err := c.finish(node, id); err != nil {
					t.Error(err)
					continue
				}
				done.Add(1)
			}
		}(w)
	}
	for i := 0; i < sessions; i++ {
		work <- blocks[i%len(blocks)]
	}
	close(work)
	wg.Wait()
	if n := done.Load(); n != sessions {
		t.Fatalf("%d of %d sessions reached their target", n, sessions)
	}

	var donor struct {
		Failed, DrainConverged, DrainCheckpointed uint64
		Lifecycle                                 Lifecycle
	}
	if code := getJSON(t, tsDonor.URL+"/statz", &donor); code != http.StatusOK {
		t.Fatalf("donor statz: %d", code)
	}
	if donor.Lifecycle.Phase != "drained" || donor.Failed != 0 {
		t.Errorf("donor phase %q, failed %d: want drained, 0", donor.Lifecycle.Phase, donor.Failed)
	}
	if donor.DrainConverged+donor.DrainCheckpointed == 0 {
		t.Error("the drain found no live session on the donor")
	}
	var joiner struct{ Created uint64 }
	if code := getJSON(t, tsJoiner.URL+"/statz", &joiner); code != http.StatusOK {
		t.Fatalf("joiner statz: %d", code)
	}
	if joiner.Created == 0 {
		t.Error("the joiner took no create after the donor drained")
	}
}

// TestColdFallbackVisible: a failed bootstrap is visible in /statz and
// /metrics as mode cold-fallback, per D16 — the fallback must never be
// silent.
func TestColdFallbackVisible(t *testing.T) {
	svc, err := service.New(storeSvcConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim()})
	a.SetBootstrap(BootstrapStatus{Mode: "cold-fallback", Peer: "127.0.0.1:1", Error: "connection refused"})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})

	var statz struct {
		Lifecycle Lifecycle
	}
	if code := getJSON(t, ts.URL+"/statz", &statz); code != http.StatusOK {
		t.Fatalf("statz: %d", code)
	}
	if statz.Lifecycle.Bootstrap.Mode != "cold-fallback" || statz.Lifecycle.Bootstrap.Error == "" {
		t.Errorf("statz bootstrap: %+v", statz.Lifecycle.Bootstrap)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !bytes.Contains(body, []byte(`moqod_bootstrap_mode{mode="cold-fallback"} 1`)) {
		t.Error("metrics missing cold-fallback mode gauge")
	}
	if !bytes.Contains(body, []byte(`moqod_bootstrap_mode{mode="warm"} 0`)) {
		t.Error("metrics missing warm mode gauge")
	}
}
