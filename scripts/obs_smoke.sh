#!/usr/bin/env bash
# Observability smoke: boot moqod, drive one session over HTTP, and
# fail unless /metrics serves well-formed non-empty lifecycle
# histograms (exemplars on the negotiated OpenMetrics exposition
# only), the session's trace and convergence
# curve are retrievable, and /debug/events shows structured events
# from at least three subsystems. CI runs this (see
# .github/workflows/ci.yml); it only needs curl + jq.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18080}"
BIN="${BIN:-/tmp/moqod-smoke}"
CACHE_DIR="$(mktemp -d)"

go build -o "$BIN" ./cmd/moqod

# -cache-dir brings the snapshot store up so its events (subsystem
# "store") appear alongside service and api events.
"$BIN" -addr "$ADDR" -workers 2 -levels 3 -pprof -slow-session 1ns \
    -cache-dir "$CACHE_DIR" &
MOQOD=$!
# Wait for the child before removing its store directory: a SIGTERMed
# moqod drains and writes its shutdown hint there on the way out.
trap 'kill "$MOQOD" 2>/dev/null || true; wait "$MOQOD" 2>/dev/null || true; rm -rf "$CACHE_DIR"' EXIT

# Wait for the listener.
for _ in $(seq 1 100); do
    curl -fsS "http://$ADDR/statz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "http://$ADDR/statz" >/dev/null

id=$(curl -fsS -X POST "http://$ADDR/sessions" -d '{"block":"Q4"}' | jq -re '.id')
echo "obs_smoke: created session $id"

# Poll to convergence, then select so the session finishes and the
# end-to-end histogram and trace archive get their samples.
state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS "http://$ADDR/sessions/$id" | jq -re '.state')
    [ "$state" = "at-target" ] && break
    sleep 0.1
done
if [ "$state" != "at-target" ]; then
    echo "obs_smoke: session stuck in state '$state'" >&2
    exit 1
fi
curl -fsS -X POST "http://$ADDR/sessions/$id/select" -d '{"index":0}' >/dev/null

metrics=$(curl -fsS "http://$ADDR/metrics")
for fam in moqod_first_frontier_seconds moqod_queue_wait_seconds \
           moqod_quantum_steps moqod_session_duration_seconds \
           moqod_poll_body_bytes; do
    count=$(printf '%s\n' "$metrics" | awk -v f="${fam}_count" '$1 == f {print $2}')
    if [ -z "$count" ] || [ "$count" = "0" ]; then
        echo "obs_smoke: histogram $fam empty or missing (count='$count')" >&2
        printf '%s\n' "$metrics" | grep "$fam" >&2 || true
        exit 1
    fi
    echo "obs_smoke: ${fam}_count=$count"
done
printf '%s\n' "$metrics" | grep -q '^moqod_sessions_selected_total 1$' ||
    { echo "obs_smoke: selected counter wrong" >&2; exit 1; }

# Exemplars are OpenMetrics-only: the default 0.0.4 scrape must never
# carry one (a classic Prometheus parser fails the whole scrape on the
# suffix), while a scrape negotiating application/openmetrics-text
# must show at least one on the first-frontier buckets, and end with
# the mandatory "# EOF" terminator.
if printf '%s\n' "$metrics" | grep -q ' # {'; then
    echo "obs_smoke: classic 0.0.4 scrape leaked an exemplar" >&2
    printf '%s\n' "$metrics" | grep ' # {' >&2
    exit 1
fi
om=$(curl -fsS -H 'Accept: application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5' \
    "http://$ADDR/metrics")
if ! printf '%s\n' "$om" |
        grep -Eq 'moqod_first_frontier_seconds_bucket\{le="[^"]+"\} [0-9]+ # \{session_id="s-[0-9]+"\} [0-9.eE+-]+ [0-9]+\.[0-9]+'; then
    echo "obs_smoke: no exemplar on moqod_first_frontier_seconds buckets" >&2
    printf '%s\n' "$om" | grep 'moqod_first_frontier_seconds_bucket' >&2 || true
    exit 1
fi
[ "$(printf '%s\n' "$om" | tail -n 1)" = "# EOF" ] ||
    { echo "obs_smoke: OpenMetrics exposition not # EOF-terminated" >&2; exit 1; }
echo "obs_smoke: first-frontier exemplar present (OpenMetrics only)"

# The runtime self-metrics bridge must serve the Go runtime families.
for fam in moqod_go_gc_pause_seconds_count moqod_go_heap_objects_bytes \
           moqod_go_goroutines moqod_go_sched_latency_seconds_p99; do
    printf '%s\n' "$metrics" | grep -q "^${fam}" ||
        { echo "obs_smoke: runtime metric $fam missing" >&2; exit 1; }
done
echo "obs_smoke: runtime self-metrics present"

# The finished session's trace must survive in the archive with spans.
spans=$(curl -fsS "http://$ADDR/debug/sessions/$id/trace" | jq -re '.spans | length')
if [ "$spans" -lt 3 ]; then
    echo "obs_smoke: archived trace has only $spans spans" >&2
    exit 1
fi
echo "obs_smoke: trace has $spans spans"

# The convergence curve must be non-empty with ε monotone
# non-increasing within each regime, ending at 0.
curve=$(curl -fsS "http://$ADDR/debug/sessions/$id/curve")
points=$(printf '%s\n' "$curve" | jq -re '.points | length')
if [ "$points" -lt 1 ]; then
    echo "obs_smoke: convergence curve empty" >&2
    exit 1
fi
printf '%s\n' "$curve" | jq -e '
    (.provenance | length > 0) and
    ([.points[].epsilon] | all(. >= 0)) and
    (.points[-1].epsilon == 0) and
    ([.points | group_by(.regime)[] | [.[].epsilon] |
        . as $e | all(range(1; length); $e[.] <= $e[. - 1])] | all)
' >/dev/null || { echo "obs_smoke: curve not monotone: $curve" >&2; exit 1; }
echo "obs_smoke: convergence curve has $points monotone points"

# The structured event log must carry events from at least three
# subsystems (service, store, api at minimum on this boot path).
events=$(curl -fsS "http://$ADDR/debug/events?n=256")
nevents=$(printf '%s\n' "$events" | jq -re '.events | length')
if [ "$nevents" -lt 1 ]; then
    echo "obs_smoke: /debug/events empty" >&2
    exit 1
fi
subs=$(printf '%s\n' "$events" | jq -re '[.events[].sub] | unique | length')
if [ "$subs" -lt 3 ]; then
    echo "obs_smoke: events from only $subs subsystems, want >= 3" >&2
    printf '%s\n' "$events" | jq -re '[.events[].sub] | unique' >&2
    exit 1
fi
for sub in service store api; do
    printf '%s\n' "$events" | jq -e --arg s "$sub" '.events | map(.sub) | index($s)' >/dev/null ||
        { echo "obs_smoke: no events from subsystem '$sub'" >&2; exit 1; }
done
echo "obs_smoke: $nevents events from $subs subsystems"

curl -fsS "http://$ADDR/debug/traces?n=4" | jq -e 'length == 1' >/dev/null
curl -fsS "http://$ADDR/debug/pprof/" >/dev/null

echo "obs_smoke: OK"
