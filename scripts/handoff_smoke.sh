#!/usr/bin/env bash
# Handoff smoke: the live two-node pin behind the drain/bootstrap tests.
# A donor converges a query and persists its snapshot; a joiner started
# with -bootstrap-peer pulls the donor's store over HTTP and must serve
# the same query warm with a frontier byte-identical (after jq
# normalization) to the donor's. Then the donor drains on
# POST /admin/drain: it must reach phase drained with zero failed
# sessions. Finally a node bootstrapping from a dead peer must come up
# cold with the fallback visible in /metrics. The drain under client
# load, with drain-aware failover to the joiner, is checked in process
# by TestHandoffDrainUnderLoad (internal/api/lifecycle_test.go).
# CI runs this (see .github/workflows/ci.yml); it needs curl + jq.
set -euo pipefail

ADDR_A="${ADDR_A:-127.0.0.1:18085}"   # donor
ADDR_B="${ADDR_B:-127.0.0.1:18086}"   # joiner
ADDR_C="${ADDR_C:-127.0.0.1:18087}"   # cold-fallback joiner
DEAD_PEER="${DEAD_PEER:-127.0.0.1:1}" # nothing listens here
BIN="${BIN:-/tmp/moqod-handoff}"
DIR_A="$(mktemp -d /tmp/moqod-handoff-a.XXXXXX)"
DIR_B="$(mktemp -d /tmp/moqod-handoff-b.XXXXXX)"
DIR_C="$(mktemp -d /tmp/moqod-handoff-c.XXXXXX)"

go build -o "$BIN" ./cmd/moqod

PIDS=()
trap 'kill -9 "${PIDS[@]}" 2>/dev/null || true; rm -rf "$DIR_A" "$DIR_B" "$DIR_C"' EXIT

# start_node ADDR [extra flags...]: start a node and wait for /readyz.
# The HTTP surface is up during bootstrap (healthz answers, readyz says
# no), so readiness — not liveness — is the "serving" signal.
start_node() {
    local addr=$1
    shift
    "$BIN" -addr "$addr" -workers 2 -levels 3 "$@" &
    PIDS+=($!)
    for _ in $(seq 1 200); do
        curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return
        sleep 0.1
    done
    echo "handoff_smoke: node $addr never became ready" >&2
    exit 1
}

# drive ADDR BLOCK: create a session, poll it to at-target, print the
# final poll body.
drive() {
    local addr=$1 block=$2 id state
    id=$(curl -fsS -X POST "http://$addr/sessions" -d "{\"block\":\"$block\"}" | jq -re '.id')
    state=""
    for _ in $(seq 1 300); do
        state=$(curl -fsS "http://$addr/sessions/$id" | jq -re '.state')
        [ "$state" = "at-target" ] && break
        sleep 0.1
    done
    if [ "$state" != "at-target" ]; then
        echo "handoff_smoke: session for $block on $addr stuck in state '$state'" >&2
        exit 1
    fi
    curl -fsS "http://$addr/sessions/$id"
}

frontier_of() { jq -S '[.frontier[] | {plan, cost}] | sort_by(.plan)'; }

# --- Donor: converge the reference query and wait for it to persist ---
start_node "$ADDR_A" -cache-dir "$DIR_A"
ref=$(drive "$ADDR_A" Q4)
ref_frontier=$(printf '%s' "$ref" | frontier_of)
echo "handoff_smoke: donor frontier has $(printf '%s' "$ref" | jq '.frontier | length') plans"

persisted=0
for _ in $(seq 1 100); do
    persisted=$(curl -fsS "http://$ADDR_A/statz" | jq -re '.Store.Persisted')
    [ "$persisted" -ge 1 ] && break
    sleep 0.1
done
if [ "$persisted" -lt 1 ]; then
    echo "handoff_smoke: donor never persisted the reference record" >&2
    exit 1
fi

# --- Joiner: bootstrap from the live donor, serve the query warm ---
start_node "$ADDR_B" -cache-dir "$DIR_B" -bootstrap-peer "$ADDR_A"
bstatz=$(curl -fsS "http://$ADDR_B/statz")
mode=$(printf '%s' "$bstatz" | jq -re '.Lifecycle.Bootstrap.Mode')
loaded=$(printf '%s' "$bstatz" | jq -re '.Store.Loaded')
if [ "$mode" != "warm" ] || [ "$loaded" -lt 1 ]; then
    echo "handoff_smoke: joiner bootstrap mode '$mode', loaded $loaded (want warm, >=1)" >&2
    exit 1
fi
echo "handoff_smoke: joiner pulled the donor store (mode $mode, $loaded records replayed)"

warm=$(drive "$ADDR_B" Q4)
if [ "$(printf '%s' "$warm" | jq -re '.warm')" != "true" ]; then
    echo "handoff_smoke: joiner did not warm-start the donor's query" >&2
    exit 1
fi
warm_frontier=$(printf '%s' "$warm" | frontier_of)
if [ "$warm_frontier" != "$ref_frontier" ]; then
    echo "handoff_smoke: joiner frontier diverges from the donor's" >&2
    diff <(printf '%s\n' "$ref_frontier") <(printf '%s\n' "$warm_frontier") >&2 || true
    exit 1
fi
echo "handoff_smoke: joiner frontier matches the donor's"

# --- Drain: the donor leaves with zero failed sessions ---
curl -fsS -X POST "http://$ADDR_A/admin/drain" >/dev/null

# The drain runs off the trigger request; wait for the settled phase.
phase=""
for _ in $(seq 1 100); do
    phase=$(curl -fsS "http://$ADDR_A/statz" | jq -re '.Lifecycle.Phase')
    [ "$phase" = "drained" ] && break
    sleep 0.1
done
astatz=$(curl -fsS "http://$ADDR_A/statz")
failed=$(printf '%s' "$astatz" | jq -re '.Failed')
if [ "$phase" != "drained" ] || [ "$failed" != "0" ]; then
    echo "handoff_smoke: donor phase '$phase', failed $failed (want drained, 0)" >&2
    exit 1
fi
echo "handoff_smoke: donor drained ($(printf '%s' "$astatz" | jq -re '.DrainConverged') converged," \
    "$(printf '%s' "$astatz" | jq -re '.DrainCheckpointed') checkpointed), zero failed sessions"

# --- Dead peer: bootstrap must degrade to cold, visibly ---
start_node "$ADDR_C" -cache-dir "$DIR_C" -bootstrap-peer "$DEAD_PEER"
cmode=$(curl -fsS "http://$ADDR_C/statz" | jq -re '.Lifecycle.Bootstrap.Mode')
if [ "$cmode" != "cold-fallback" ]; then
    echo "handoff_smoke: dead-peer bootstrap mode '$cmode', want cold-fallback" >&2
    exit 1
fi
if ! curl -fsS "http://$ADDR_C/metrics" | grep -q 'moqod_bootstrap_mode{mode="cold-fallback"} 1'; then
    echo "handoff_smoke: cold fallback not visible in /metrics" >&2
    exit 1
fi
cold=$(drive "$ADDR_C" Q4)
if [ "$(printf '%s' "$cold" | jq -re '.warm')" != "false" ]; then
    echo "handoff_smoke: dead-peer joiner claims a warm start" >&2
    exit 1
fi
echo "handoff_smoke: dead-peer joiner serves cold with the fallback visible"
echo "handoff_smoke: OK"
