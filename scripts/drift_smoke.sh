#!/usr/bin/env bash
# Drift smoke: boot moqod with a persistent cache, converge a query,
# install a new statistics epoch over the HTTP surface, and fail unless
# the same query re-served after the epoch swap reports a drift-
# re-costed warm start — with the invalidation class visible in /metrics
# and the epoch gauge advanced. Then restart on the same cache directory
# and check the replayed (stale-epoch) state still drift-classifies
# instead of being served verbatim. CI runs this (see
# .github/workflows/ci.yml); it only needs curl + jq.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18082}"
BIN="${BIN:-/tmp/moqod-drift}"
DIR="$(mktemp -d /tmp/moqod-drift.XXXXXX)"

go build -o "$BIN" ./cmd/moqod

start_moqod() {
    "$BIN" -addr "$ADDR" -workers 2 -levels 3 -cache-dir "$DIR" &
    MOQOD=$!
    for _ in $(seq 1 100); do
        curl -fsS "http://$ADDR/statz" >/dev/null 2>&1 && return
        sleep 0.1
    done
    echo "drift_smoke: server never came up" >&2
    exit 1
}

start_moqod
trap 'kill -9 "$MOQOD" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# drive BLOCK: create a session, poll it to at-target, print the final
# poll body.
drive() {
    local id state
    id=$(curl -fsS -X POST "http://$ADDR/sessions" -d "{\"block\":\"$1\"}" | jq -re '.id')
    state=""
    for _ in $(seq 1 300); do
        state=$(curl -fsS "http://$ADDR/sessions/$id" | jq -re '.state')
        [ "$state" = "at-target" ] && break
        sleep 0.1
    done
    if [ "$state" != "at-target" ]; then
        echo "drift_smoke: session for $1 stuck in state '$state'" >&2
        exit 1
    fi
    curl -fsS "http://$ADDR/sessions/$id"
}

# metric NAME: pull one sample value from /metrics (0 when absent).
metric() {
    curl -fsS "http://$ADDR/metrics" | awk -v m="$1" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

# Converge the reference query under epoch 1 (write-through persists
# its snapshot) and record its frontier costs.
ref=$(drive Q5)
ref_costs=$(printf '%s' "$ref" | jq -cS '[.frontier[].cost] | sort')
echo "drift_smoke: reference converged ($(printf '%s' "$ref" | jq '.frontier | length') frontier plans, epoch $(metric moqod_stats_epoch))"
if [ "$(printf '%s' "$ref" | jq -r '.drift // empty')" != "" ]; then
    echo "drift_smoke: cold session unexpectedly reported a drift resolution" >&2
    exit 1
fi

# Wait until the snapshot actually reached the store before drifting.
for _ in $(seq 1 100); do
    [ "$(curl -fsS "http://$ADDR/statz" | jq -re '.Store.Persisted')" -ge 1 ] && break
    sleep 0.1
done

# Install a small statistics drift: orders +10%, within the default
# threshold, so the cached plan state must be re-costed in place.
resp=$(curl -fsS -X POST "http://$ADDR/catalog/stats" \
    -d '{"tables":[{"name":"orders","rows":1650000}]}')
epoch=$(printf '%s' "$resp" | jq -re '.version')
if [ "$epoch" -lt 2 ]; then
    echo "drift_smoke: stats update reported epoch $epoch, want >= 2" >&2
    exit 1
fi
echo "drift_smoke: installed statistics epoch $epoch"

if [ "$(metric moqod_stats_epoch)" != "$epoch" ]; then
    echo "drift_smoke: /metrics epoch gauge $(metric moqod_stats_epoch) != $epoch" >&2
    exit 1
fi

# Re-serve the same block: the session must warm-start via the drift
# path, report it in the poll body, and its frontier must be re-costed
# (orders' cardinality moved, so the cost vectors cannot be identical).
warm=$(drive Q5)
if [ "$(printf '%s' "$warm" | jq -re '.warm')" != "true" ]; then
    echo "drift_smoke: post-drift session did not warm-start" >&2
    exit 1
fi
if [ "$(printf '%s' "$warm" | jq -re '.drift // empty')" != "recosted" ]; then
    echo "drift_smoke: post-drift session drift='$(printf '%s' "$warm" | jq -r '.drift // empty')', want 'recosted'" >&2
    exit 1
fi
warm_costs=$(printf '%s' "$warm" | jq -cS '[.frontier[].cost] | sort')
if [ "$warm_costs" = "$ref_costs" ]; then
    echo "drift_smoke: post-drift frontier costs identical to the superseded epoch — served without re-costing" >&2
    exit 1
fi
echo "drift_smoke: drift warm start re-costed the cached plan state"

recosted=$(metric 'moqod_drift_total{class="recosted"}')
if [ "$recosted" -lt 1 ]; then
    echo "drift_smoke: /metrics drift counter class=recosted is $recosted, want >= 1" >&2
    exit 1
fi
echo "drift_smoke: /metrics shows drift_total{class=recosted} = $recosted"

# Restart on the same cache directory: the store still holds epoch-1
# records; a re-served query built under the new epoch must classify
# them as drift (re-cost) rather than serve them verbatim, and the
# epoch label must survive the restart (EnsureAtLeast from the store).
kill "$MOQOD"
wait "$MOQOD" 2>/dev/null || true
start_moqod
if [ "$(metric moqod_stats_epoch)" -lt "$epoch" ]; then
    echo "drift_smoke: restart lowered the stats epoch to $(metric moqod_stats_epoch)" >&2
    exit 1
fi
echo "drift_smoke: restart preserved the epoch label ($(metric moqod_stats_epoch))"
echo "drift_smoke: OK"
