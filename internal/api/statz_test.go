package api

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/service"
	"repro/internal/workload"
)

// TestStatzMatchesMetrics drives one store-backed node over HTTP through
// a cold create, an exact-tier hit, a select, a close, an admission
// refusal and a drain, then reads /statz and /metrics: every counter
// /statz reports must equal its /metrics sample, because both read the
// one registry word.
func TestStatzMatchesMetrics(t *testing.T) {
	dir := t.TempDir()
	// An earlier life of the node leaves Q4 in the store, so this one
	// boots with a store read and a decode behind it.
	seed, err := service.New(storeSvcConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	converge(t, seed, "Q4")
	seed.Shutdown()

	cfg := storeSvcConfig(dir)
	cfg.MaxActiveSessions = 2
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Seed: 1, Dim: costmodel.Default().Space().Dim(), DrainGrace: time.Second})
	a.Ready(svc, workload.MustTPCHBlocks(1))
	ts := httptest.NewServer(a.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown()
	})

	create := func(block string, want int) string {
		t.Helper()
		var created struct {
			ID string `json:"id"`
		}
		var body any
		if want == http.StatusCreated {
			body = &created
		}
		if code, _ := postJSON(t, ts.URL+"/sessions", `{"block":"`+block+`"}`, body); code != want {
			t.Fatalf("create %s: %d, want %d", block, code, want)
		}
		return created.ID
	}
	atTarget := func(id string) int {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			var st struct {
				State string `json:"state"`
				Steps int    `json:"steps"`
			}
			getJSON(t, ts.URL+"/sessions/"+id, &st)
			if st.State == "at-target" {
				return st.Steps
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s stuck in %q", id, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	cold := create("Q12", http.StatusCreated)
	steps := atTarget(cold)
	if code, _ := postJSON(t, ts.URL+"/sessions/"+cold+"/select", `{"index":0,"steps":`+strconv.Itoa(steps)+`}`, nil); code != http.StatusOK {
		t.Fatalf("select: %d", code)
	}
	warm := create("Q4", http.StatusCreated)
	atTarget(warm)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+warm, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		t.Fatalf("close: %d", resp.StatusCode)
	}
	create("Q3", http.StatusCreated)
	create("Q14", http.StatusCreated)
	create("Q12", http.StatusTooManyRequests) // two live sessions: the limit
	if code, _ := postJSON(t, ts.URL+"/admin/drain", "", nil); code != http.StatusAccepted {
		t.Fatalf("drain: %d", code)
	}
	a.Drain() // drains, then stops the workers: nothing counts after this

	var statz service.Stats
	if code := getJSON(t, ts.URL+"/statz", &statz); code != http.StatusOK {
		t.Fatalf("statz: %d", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	samples := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		key, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			samples[key] = n
		}
	}

	c := statz.Cache
	for key, got := range map[string]uint64{
		"moqod_sessions_created_total":           statz.Created,
		"moqod_sessions_selected_total":          statz.Selected,
		"moqod_sessions_closed_total":            statz.Closed,
		"moqod_sessions_expired_total":           statz.Expired,
		"moqod_sessions_failed_total":            statz.Failed,
		"moqod_sessions_timed_out_total":         statz.TimedOut,
		"moqod_snapshots_poisoned_total":         statz.Poisoned,
		"moqod_sessions_rejected_total":          statz.Rejected,
		"moqod_steps_total":                      statz.Steps,
		"moqod_scheduler_pops_total":             statz.Pops,
		"moqod_scheduler_preempts_total":         statz.Preempts,
		"moqod_warm_starts_total":                statz.WarmStarts,
		"moqod_iso_warm_starts_total":            statz.IsoWarmStarts,
		`moqod_drift_total{class="recosted"}`:    statz.DriftRecosted,
		`moqod_drift_total{class="resumed"}`:     statz.DriftResumed,
		`moqod_drift_total{class="quarantined"}`: statz.DriftQuarantined,
		"moqod_drain_converged_total":            statz.DrainConverged,
		"moqod_drain_checkpointed_total":         statz.DrainCheckpointed,
		`moqod_cache_hits_total{tier="exact"}`:   c.ExactHits,
		`moqod_cache_hits_total{tier="iso"}`:     c.IsoHits,
		"moqod_cache_stale_hits_total":           c.StaleHits,
		"moqod_cache_misses_total":               c.Misses,
		"moqod_cache_puts_total":                 c.Puts,
		"moqod_cache_evictions_total":            c.Evictions,
		"moqod_cache_poisoned_total":             c.Poisoned,
		`moqod_store_reads_total{when="boot"}`:   statz.StoreReadsBoot,
		`moqod_store_reads_total{when="hit"}`:    statz.StoreReadsHit,
		"moqod_store_read_errors_total":          statz.StoreReadErrors,
		"moqod_store_persisted_total":            statz.Store.Persisted,
		"moqod_store_dropped_total":              statz.Store.Dropped,
		"moqod_store_write_errors_total":         statz.Store.WriteErrors,
		"moqod_store_flushes_total":              statz.Store.Flushes,
		"moqod_store_degraded_enters_total":      statz.Store.DegradedEnters,
		"moqod_store_degraded_drops_total":       statz.Store.DegradedDrops,
		"moqod_store_probes_total":               statz.Store.Probes,
		"moqod_store_tombstones_total":           statz.Store.Tombstones,
	} {
		if want, ok := samples[key]; !ok {
			t.Errorf("/metrics has no sample %s", key)
		} else if got != want {
			t.Errorf("/statz reads %d, /metrics %s reads %d", got, key, want)
		}
	}
	if c.Hits != c.ExactHits+c.IsoHits {
		t.Errorf("/statz Cache.Hits %d, not ExactHits %d + IsoHits %d", c.Hits, c.ExactHits, c.IsoHits)
	}

	// Each step of the script must have counted, or the equalities above
	// could hold between zeros.
	for name, n := range map[string]uint64{
		"created": statz.Created, "selected": statz.Selected, "closed": statz.Closed,
		"rejected": statz.Rejected, "steps": statz.Steps, "pops": statz.Pops,
		"warm starts": statz.WarmStarts, "exact hits": c.ExactHits, "misses": c.Misses, "puts": c.Puts,
		"drained sessions":  statz.DrainConverged + statz.DrainCheckpointed,
		"store reads":       statz.StoreReadsBoot + statz.StoreReadsHit,
		"persisted records": statz.Store.Persisted, "store flushes": statz.Store.Flushes,
	} {
		if n == 0 {
			t.Errorf("the script counted no %s", name)
		}
	}
}
