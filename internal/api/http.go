package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/eventlog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// Mux returns the node's HTTP surface: the session/catalog/debug routes
// moqod has always served, plus the lifecycle routes — health and
// readiness probes, the drain trigger, and the store export a joining
// peer bootstraps from. Health endpoints answer in every phase; the
// session surface replies 503 (with the same structured retry body the
// 429 path uses) while the node is bootstrapping or draining.
func (a *API) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", a.handleCreate)
	mux.HandleFunc("GET /sessions/{id}", a.handlePoll)
	mux.HandleFunc("POST /sessions/{id}/bounds", a.handleBounds)
	mux.HandleFunc("POST /sessions/{id}/select", a.handleSelect)
	mux.HandleFunc("DELETE /sessions/{id}", a.handleClose)
	mux.HandleFunc("POST /catalog/stats", a.handleStatsUpdate)
	mux.HandleFunc("GET /statz", a.handleStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("POST /admin/drain", a.handleDrain)
	mux.HandleFunc("GET /admin/store/manifest", a.handleManifest)
	mux.HandleFunc("GET /admin/store/segments/{seq}", a.handleSegment)
	mux.HandleFunc("GET /debug/sessions/{id}/trace", a.handleTrace)
	mux.HandleFunc("GET /debug/sessions/{id}/curve", a.handleCurve)
	mux.HandleFunc("GET /debug/traces", a.handleTraces)
	mux.HandleFunc("GET /debug/events", a.handleEvents)
	if a.cfg.Pprof {
		// Wired explicitly instead of importing for the DefaultServeMux
		// side effect, so the profiles only exist behind the flag.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeUnavailable is the one shape every "not now, retry elsewhere"
// answer takes: 503 with a Retry-After header mirrored in the body,
// plus a code ("bootstrapping" or "draining") so clients and load
// balancers can tell a node warming up from one on its way out.
func writeUnavailable(w http.ResponseWriter, code string, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":             err.Error(),
		"code":              code,
		"retryAfterSeconds": 1,
	})
}

// ensureService returns the running service, or answers with the
// 503-bootstrapping body and reports false while the node has none.
func (a *API) ensureService(w http.ResponseWriter) (*service.Service, bool) {
	svc := a.service()
	if svc == nil {
		writeUnavailable(w, "bootstrapping", errors.New("node is bootstrapping"))
		return nil, false
	}
	return svc, true
}

type createRequest struct {
	Block    string `json:"block,omitempty"`
	Tables   int    `json:"tables,omitempty"`
	Topology string `json:"topology,omitempty"`
	Seed     *int64 `json:"seed,omitempty"`
}

func (a *API) handleCreate(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := a.resolveQuery(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := svc.Create(q)
	if err != nil {
		if errors.Is(err, service.ErrDraining) || errors.Is(err, service.ErrShutdown) {
			// The node is on its way out; unlike 429 this is not "come
			// back soon" but "go elsewhere" — drain-aware clients retry
			// against their failover node.
			writeUnavailable(w, "draining", err)
			return
		}
		if errors.Is(err, service.ErrOverloaded) {
			// Admission control shed the session; tell clients when to
			// come back instead of letting them hammer the queue. The
			// body mirrors the Retry-After header in structured form,
			// plus which limit tripped.
			body := map[string]any{
				"error":             err.Error(),
				"code":              "overloaded",
				"retryAfterSeconds": 1,
			}
			var oe *service.OverloadError
			if errors.As(err, &oe) {
				body["kind"] = oe.Kind
			}
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, body)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// tpch is the TPC-H catalog synthetic queries run on. A catalog is
// immutable once built, so every query shares the one.
var tpch = sync.OnceValue(func() *catalog.Catalog { return catalog.TPCH(1) })

// rngs recycles the generators synthetic queries are drawn with: a
// source's state is kilobytes, and Seed resets all of it.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// syntheticQuery builds the deterministic synthetic query for a
// (tables, topology, seed) triple — the TPC-H catalog when it is large
// enough, a seeded random catalog beyond it.
func syntheticQuery(tables int, tp query.Topology, seed int64) (*query.Query, error) {
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	cat := tpch()
	if tables > cat.NumTables() {
		rng.Seed(seed)
		cat = catalog.Random(rng, tables, 100, 1e7)
	}
	rng.Seed(seed)
	return query.Synthetic(cat, tables, tp, rng)
}

// handleStatsUpdate installs a statistics update (the same JSON shape
// as -stats-file) as a new catalog epoch. Sessions already live keep
// refining under the statistics they were created with; new sessions
// are costed under the new epoch and classify drift against any cached
// plan state from older epochs.
func (a *API) handleStatsUpdate(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.ensureService(w); !ok {
		return
	}
	var u catalog.StatsUpdate
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ep, err := a.ApplyStats(u)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version": ep.Version,
		"tables":  len(u.Tables),
		"edges":   len(u.Edges),
	})
}

func parseTopology(s string) (query.Topology, error) {
	switch s {
	case "", "chain":
		return query.Chain, nil
	case "star":
		return query.Star, nil
	case "cycle":
		return query.Cycle, nil
	case "clique":
		return query.Clique, nil
	default:
		return 0, fmt.Errorf("unknown topology %q", s)
	}
}

func (a *API) handlePoll(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	st, err := svc.Poll(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	a.writePoll(w, &st)
}

// writePoll answers a poll with st. The body has an encoder of its own
// (pollbody.go) — no per-plan strings, no reflection — and goes out in
// one write of known length from a pooled buffer.
func (a *API) writePoll(w http.ResponseWriter, st *service.Status) {
	buf := pollBufs.Get().(*[]byte)
	body, err := appendPollBody((*buf)[:0], st)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
	} else {
		a.pollBytes.Observe(int64(len(body)))
		writeBody(w, body)
	}
	*buf = body
	pollBufs.Put(buf)
}

// writeBody answers 200 with a JSON body in one write of known length.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client went away
}

func (a *API) handleBounds(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	var req struct {
		Bounds []float64 `json:"bounds"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var b cost.Vector
	if len(req.Bounds) > 0 {
		if len(req.Bounds) != a.cfg.Dim {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bounds need %d values, got %d", a.cfg.Dim, len(req.Bounds)))
			return
		}
		b = cost.Vector(req.Bounds)
	}
	if err := svc.SetBounds(r.PathValue("id"), b); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (a *API) handleSelect(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	var req struct {
		Index int `json:"index"`
		// Steps is the "steps" value from the poll the index refers to;
		// the select fails with 409 if refinement moved the frontier
		// since. Omit to select from the live frontier unchecked.
		Steps *int `json:"steps"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	expect := -1
	if req.Steps != nil {
		expect = *req.Steps
	}
	p, err := svc.Select(r.PathValue("id"), req.Index, expect)
	if err != nil {
		// 409 is for a select the session's state refuses: the frontier
		// moved since the poll, no frontier is published to select from,
		// or the session is no longer live.
		status := http.StatusConflict
		switch {
		case errors.Is(err, service.ErrNoSession):
			status = http.StatusNotFound
		case errors.Is(err, service.ErrPlanIndex):
			status = http.StatusBadRequest
		}
		writeErr(w, status, err)
		return
	}
	writeSelected(w, r.PathValue("id"), p)
}

// writeSelected answers a select with the plan as a poll body carries
// it (plan.Node.AppendJSON) and encoding/json's trailing newline. A
// plan JSON cannot carry is a 500 with a JSON error, as in a poll.
func writeSelected(w http.ResponseWriter, id string, p *plan.Node) {
	body, ok := p.AppendJSON(make([]byte, 0, 256))
	if !ok {
		writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("api: session %s: selected plan has non-finite cost %v or row estimate %v", id, p.Cost, p.Rows))
		return
	}
	writeBody(w, append(body, '\n'))
}

func (a *API) handleClose(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	if err := svc.Close(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statzBody embeds the service stats so every existing field keeps its
// JSON path (smoke scripts jq .Store.Persisted etc.) and adds the
// node-level lifecycle view alongside.
type statzBody struct {
	service.Stats
	Lifecycle Lifecycle
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statzBody{Stats: svc.Stats(), Lifecycle: a.Lifecycle()})
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	// Exemplars are only legal in OpenMetrics; the classic 0.0.4
	// parser reads the `# {...}` suffix as a malformed timestamp and
	// fails the whole scrape. So the format is negotiated: a client
	// offering application/openmetrics-text gets exemplars and the
	// `# EOF` terminator, everyone else gets plain 0.0.4 without them.
	// Either writer renders into one buffer and writes once; a failed
	// write means the client went away, which a scrape can ignore.
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = svc.Registry().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = svc.Registry().WriteText(w)
}

// acceptsOpenMetrics reports whether an Accept header lists
// application/openmetrics-text. Media-type parameters (version, q)
// are ignored: Prometheus offers the type at all only when its parser
// can take it, which is the one bit the writer needs.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// handleHealthz is liveness: the process is up and serving HTTP. It is
// deliberately phase-blind — a draining or bootstrapping node is alive,
// just not ready.
func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "phase": a.Phase().String()})
}

// handleReadyz is readiness: 200 only while the node should receive
// traffic. False is sticky for draining (the phase never moves back),
// so a balancer acting on it never routes into a shutdown.
func (a *API) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if ok, reason := a.ReadyToServe(); !ok {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleDrain triggers the drain asynchronously and answers with the
// node's phase: 202 on first trigger, 200 if already draining/drained.
// The caller polls /statz (Draining, DrainConverged, DrainCheckpointed,
// Lifecycle.Phase) to watch it complete.
func (a *API) handleDrain(w http.ResponseWriter, _ *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	already := a.Phase() >= Draining
	// Flip the phase before answering so readiness goes false with (not
	// after) the 202, then run the blocking part off the request.
	a.advance(Draining)
	go a.Drain()
	status := http.StatusAccepted
	if already {
		status = http.StatusOK
	}
	st := svc.Stats()
	writeJSON(w, status, map[string]any{
		"phase":        a.Phase().String(),
		"converged":    st.DrainConverged,
		"checkpointed": st.DrainCheckpointed,
	})
}

// handleManifest serves the store's export view — the segment list a
// joining peer pulls, stamped with the compaction generation that keeps
// the transfer consistent.
func (a *API) handleManifest(w http.ResponseWriter, _ *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	st := svc.Store()
	if st == nil {
		writeErr(w, http.StatusNotFound, errors.New("no snapshot store configured"))
		return
	}
	writeJSON(w, http.StatusOK, st.ExportManifest())
}

// handleSegment serves raw verified-prefix bytes of one segment:
// GET /admin/store/segments/{seq}?gen=G&off=N. A generation mismatch
// (the store compacted since the manifest) answers 409 so the joiner
// restarts from a fresh manifest instead of mixing generations.
func (a *API) handleSegment(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	st := svc.Store()
	if st == nil {
		writeErr(w, http.StatusNotFound, errors.New("no snapshot store configured"))
		return
	}
	seq, err := strconv.ParseInt(r.PathValue("seq"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad segment %q", r.PathValue("seq")))
		return
	}
	gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad gen %q", r.URL.Query().Get("gen")))
		return
	}
	var off int64
	if v := r.URL.Query().Get("off"); v != "" {
		off, err = strconv.ParseInt(v, 10, 64)
		if err != nil || off < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad off %q", v))
			return
		}
	}
	data, err := st.ReadSegment(gen, seq, off, 0)
	if err != nil {
		if errors.Is(err, store.ErrExportStale) {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	d, err := svc.SessionTrace(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleCurve serves a session's convergence curve — per-step samples
// of the frontier's best scalarization with the ε-distance to the
// regime's final value — from the live trace or the finished-session
// archive.
func (a *API) handleCurve(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	c, err := svc.ConvergenceCurve(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, c)
}

// handleEvents serves the node's structured event ring, oldest first:
// GET /debug/events?n=N&level=L (N caps the count, L filters to that
// severity and above). 404 when the node runs without an event log.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	ev := a.cfg.Events
	if ev == nil {
		writeErr(w, http.StatusNotFound, errors.New("no event log configured"))
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = p
	}
	minLevel := eventlog.LevelDebug
	if v := r.URL.Query().Get("level"); v != "" {
		lv, ok := eventlog.ParseLevel(v)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad level %q", v))
			return
		}
		minLevel = lv
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  ev.Snapshot(n, minLevel),
		"dropped": ev.DroppedTotal(),
	})
}

func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	svc, ok := a.ensureService(w)
	if !ok {
		return
	}
	max := 32
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		max = n
	}
	writeJSON(w, http.StatusOK, svc.RecentTraces(max))
}
