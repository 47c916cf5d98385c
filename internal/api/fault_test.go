package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/service"
	"repro/internal/workload"
)

// newFaultServer is newTestServer with the caller mutating the service
// config first — admission limits, fault hooks.
func newFaultServer(t *testing.T, mutate func(*service.Config)) *httptest.Server {
	t.Helper()
	cfg := service.Config{
		Opt: core.Config{
			Model:            costmodel.Default(),
			ResolutionLevels: 3,
			TargetPrecision:  1.05,
			PrecisionStep:    0.1,
		},
		Workers:       2,
		CacheCapacity: 16,
		IdleTimeout:   -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim()})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})
	return ts
}

func createSession(t *testing.T, ts *httptest.Server, block string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"block":"`+block+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOverloadResponseBody checks the structured 429: the Retry-After
// header, and a JSON body carrying the machine-readable code, the
// retry hint and the tripped limit.
func TestOverloadResponseBody(t *testing.T) {
	ts := newFaultServer(t, func(cfg *service.Config) { cfg.MaxActiveSessions = 1 })

	first := createSession(t, ts, "Q4")
	first.Body.Close()
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first create: status %d", first.StatusCode)
	}
	resp := createSession(t, ts, "Q12")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	var body struct {
		Error             string `json:"error"`
		Code              string `json:"code"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
		Kind              string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "overloaded" || body.RetryAfterSeconds != 1 {
		t.Errorf("code %q retryAfterSeconds %d, want overloaded/1", body.Code, body.RetryAfterSeconds)
	}
	if body.Kind != "sessions" {
		t.Errorf("kind %q, want sessions (MaxActiveSessions tripped)", body.Kind)
	}
	if body.Error == "" || !strings.Contains(body.Error, "overloaded") {
		t.Errorf("error %q does not describe the refusal", body.Error)
	}
}

// TestPollReportsFailure drives a session whose first step panics and
// checks the API surface of panic isolation: the poll body reports
// state "failed" with the captured error, and DELETE acknowledges it.
func TestPollReportsFailure(t *testing.T) {
	ts := newFaultServer(t, func(cfg *service.Config) {
		cfg.FaultHook = func(id string, step int) {
			if step == 0 {
				panic("injected api fault")
			}
		}
	})
	resp := createSession(t, ts, "Q4")
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create: status %d id %q", resp.StatusCode, created.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+"/sessions/"+created.ID, &st); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if st.State == "failed" {
			if !strings.Contains(st.Error, "injected api fault") {
				t.Fatalf("failed poll error %q does not carry the panic", st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %q", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete failed session: status %d", del.StatusCode)
	}
}

// TestSelectStatusCodes pins what a refused select answers: 404 for an
// unknown session, 400 for an index outside the published frontier, and
// 409 only for the refusals that are about the session's state — the
// frontier moved since the poll, nothing is published to select from
// (here: bounds that admit no plan), or the session is no longer live.
func TestSelectStatusCodes(t *testing.T) {
	ts := newFaultServer(t, func(cfg *service.Config) {
		cfg.FaultHook = func(id string, step int) {
			if id == "s-2" && step == 0 {
				panic("injected api fault")
			}
		}
	})
	type pollState struct {
		State    string     `json:"state"`
		Steps    int        `json:"steps"`
		Frontier []planJSON `json:"frontier"`
	}
	// settle creates a session and polls it until it stops refining.
	settle := func(want string) (string, pollState) {
		t.Helper()
		resp := createSession(t, ts, "Q4")
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st pollState
			getJSON(t, ts.URL+"/sessions/"+created.ID, &st)
			if st.State == want {
				return created.ID, st
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s stuck in %q, want %q", created.ID, st.State, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	live, st := settle("at-target")
	failed, _ := settle("failed")
	if live != "s-1" || failed != "s-2" {
		t.Fatalf("session ids %q, %q: the fault hook keys on s-2", live, failed)
	}
	empty, _ := settle("at-target")
	dim := costmodel.Default().Space().Dim()
	if code, _ := postJSON(t, ts.URL+"/sessions/"+empty+"/bounds",
		`{"bounds":[`+strings.TrimSuffix(strings.Repeat("1e-9,", dim), ",")+`]}`, nil); code != http.StatusOK {
		t.Fatalf("set bounds: status %d", code)
	}
	for _, tc := range []struct {
		name, id, body string
		want           int
	}{
		{"unknown session", "s-999", `{"index":0}`, http.StatusNotFound},
		{"index past the frontier", live, fmt.Sprintf(`{"index":%d}`, len(st.Frontier)), http.StatusBadRequest},
		{"frontier moved since the poll", live, fmt.Sprintf(`{"index":0,"steps":%d}`, st.Steps-1), http.StatusConflict},
		{"empty frontier", empty, `{"index":0}`, http.StatusConflict},
		{"session not live", failed, `{"index":0}`, http.StatusConflict},
		{"last published plan", live, fmt.Sprintf(`{"index":%d,"steps":%d}`, len(st.Frontier)-1, st.Steps), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/sessions/"+tc.id+"/select", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
			Plan  string `json:"plan"`
		}
		err = json.Unmarshal(raw, &body)
		if resp.StatusCode != tc.want || err != nil {
			t.Errorf("%s: status %d (%v), want %d; error %q", tc.name, resp.StatusCode, err, tc.want, body.Error)
		}
		if tc.want == http.StatusOK {
			// The selected plan is the poll's last one, in the bytes
			// encoding/json writes for it.
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(st.Frontier[len(st.Frontier)-1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want.Bytes()) {
				t.Errorf("%s: select body %q, encoding/json writes %q", tc.name, raw, want.Bytes())
			}
		}
	}
}
