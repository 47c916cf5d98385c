#!/usr/bin/env bash
# Chaos smoke: SIGKILL moqod mid-write-through-load, restart it on the
# same cache directory, and fail unless the survivor replays the store
# and serves the pre-crash query as a warm start whose frontier matches
# the pre-crash one exactly. This is the live-process pin behind the
# restart tests: no shutdown path runs, so whatever the background
# writer managed to append is all the restart gets — and it must be
# either absent or correct, never wrong. The second half pins the
# boot checkpoint and the store as the cache's cold tier (DESIGN.md D19,
# D22): the killed life left no checkpoint, so the survivor scans the
# log and boots with its records still on disk — nothing read back,
# nothing decoded — and the warm session pays one store read and one
# decode on its first hit; after a SIGTERM the next life adopts the
# checkpoint, scans nothing, reads and decodes its hot set before it is
# ready, and the same session pays nothing — with the same frontier both
# times. Finally that life writes one new query through and is killed:
# the next boot adopts the checkpoint and scans only the tail the killed
# life appended, and both queries start warm with their frontiers. CI
# runs this (see .github/workflows/ci.yml); it only needs curl + jq.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
BIN="${BIN:-/tmp/moqod-chaos}"
DIR="$(mktemp -d /tmp/moqod-chaos.XXXXXX)"

go build -o "$BIN" ./cmd/moqod

start_moqod() {
    "$BIN" -addr "$ADDR" -workers 2 -levels 3 -cache-dir "$DIR" &
    MOQOD=$!
    for _ in $(seq 1 100); do
        curl -fsS "http://$ADDR/statz" >/dev/null 2>&1 && return
        sleep 0.1
    done
    echo "chaos_smoke: server never came up" >&2
    exit 1
}

start_moqod
trap 'kill -9 "$MOQOD" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# metric NAME: the value of one sample line of /metrics (NAME includes
# its label set, if any).
metric() {
    curl -fsS "http://$ADDR/metrics" | awk -v name="$1" '$1 == name { print $2; found = 1 } END { if (!found) print "missing" }'
}

# require NAME OP VALUE: fail unless the integer metric compares as told.
require() {
    local got
    got=$(metric "$1")
    if ! [ "$got" "$2" "$3" ] 2>/dev/null; then
        echo "chaos_smoke: $1 = $got, want $2 $3" >&2
        exit 1
    fi
}

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
        echo "chaos_smoke: session for $1 stuck in state '$state'" >&2
        exit 1
    fi
    curl -fsS "http://$ADDR/sessions/$id"
}

# Converge the reference query (write-through persists its snapshot)
# and record the frontier the restarted server must reproduce.
ref=$(drive Q4)
ref_frontier=$(printf '%s' "$ref" | jq -S '[.frontier[] | {plan, cost}] | sort_by(.plan)')
nplans=$(printf '%s' "$ref" | jq '.frontier | length')
echo "chaos_smoke: reference frontier has $nplans plans"

# The store's writer is asynchronous; wait until the reference record
# actually hit the segment file before pulling the plug.
persisted=0
for _ in $(seq 1 100); do
    persisted=$(curl -fsS "http://$ADDR/statz" | jq -re '.Store.Persisted')
    [ "$persisted" -ge 1 ] && break
    sleep 0.1
done
if [ "$persisted" -lt 1 ]; then
    echo "chaos_smoke: store never persisted the reference record" >&2
    exit 1
fi

# Pile on more write-through load and SIGKILL mid-write: sessions on
# other blocks keep the background writer appending while the process
# dies with no shutdown path (no flush, no sweep).
for blk in Q12 Q13 Q14 Q20; do
    curl -fsS -X POST "http://$ADDR/sessions" -d "{\"block\":\"$blk\"}" >/dev/null
done
kill -9 "$MOQOD"
wait "$MOQOD" 2>/dev/null || true
echo "chaos_smoke: SIGKILLed moqod mid-load"

start_moqod

loaded=$(curl -fsS "http://$ADDR/statz" | jq -re '.Store.Loaded')
if [ "$loaded" -lt 1 ]; then
    echo "chaos_smoke: restart loaded $loaded records, want >= 1" >&2
    exit 1
fi
echo "chaos_smoke: restart replayed $loaded records"

# No shutdown ran, so no hot set was written: every replayed record is
# still on disk at ready, and only there — nothing is resident, nothing
# was read back or decoded at boot.
require moqod_cache_entries -eq 0
live=$(curl -fsS "http://$ADDR/statz" | jq -re '.Store.LiveRecords')
if [ "$live" -lt 1 ]; then
    echo "chaos_smoke: restart has $live live records, want >= 1" >&2
    exit 1
fi
require 'moqod_store_reads_total{when="boot"}' -eq 0
require 'moqod_store_reads_total{when="hit"}' -eq 0
require 'moqod_cache_decodes_total{when="boot"}' -eq 0
require 'moqod_cache_decodes_total{when="hit"}' -eq 0

# check_warm LABEL [BLOCK FRONTIER]: the query (default: the reference
# query) must start warm and converge to the byte-identical frontier it
# had before the restart.
check_warm() {
    local block="${2:-Q4}" want="${3:-$ref_frontier}" warm warm_frontier
    warm=$(drive "$block")
    if [ "$(printf '%s' "$warm" | jq -re '.warm')" != "true" ]; then
        echo "chaos_smoke: $1: server did not warm-start $block" >&2
        exit 1
    fi
    warm_frontier=$(printf '%s' "$warm" | jq -S '[.frontier[] | {plan, cost}] | sort_by(.plan)')
    if [ "$warm_frontier" != "$want" ]; then
        echo "chaos_smoke: $1: warm frontier of $block diverges from its pre-restart one" >&2
        diff <(printf '%s\n' "$want") <(printf '%s\n' "$warm_frontier") >&2 || true
        exit 1
    fi
    echo "chaos_smoke: $1: warm frontier of $block matches its pre-restart one"
}

# scanned: the bytes this life's boot read from the segments.
scanned() {
    curl -fsS "http://$ADDR/statz" | jq -re '.Store.ScanBytes'
}

check_warm "after SIGKILL"
# The warm session was the entry's first use: it paid the one read of
# the store and the one decode.
require 'moqod_store_reads_total{when="hit"}' -eq 1
require 'moqod_cache_decodes_total{when="hit"}' -eq 1
require moqod_store_read_errors_total -eq 0

# Graceful stop: Close leaves the checkpoint — the index and the hot
# set, what this life used.
kill -TERM "$MOQOD"
wait "$MOQOD" 2>/dev/null || true
start_moqod
if [ "$(scanned)" -ne 0 ]; then
    echo "chaos_smoke: the boot after SIGTERM scanned $(scanned) bytes, want 0" >&2
    exit 1
fi
require 'moqod_store_reads_total{when="boot"}' -ge 1
require 'moqod_cache_decodes_total{when="boot"}' -ge 1
check_warm "after SIGTERM"
# Read and decoded before ready: the same session does neither.
require 'moqod_store_reads_total{when="hit"}' -eq 0
require 'moqod_cache_decodes_total{when="hit"}' -eq 0

# A new query writes through behind the checkpoint; then the plug.
new=$(drive Q10)
new_frontier=$(printf '%s' "$new" | jq -S '[.frontier[] | {plan, cost}] | sort_by(.plan)')
persisted=0
for _ in $(seq 1 100); do
    persisted=$(curl -fsS "http://$ADDR/statz" | jq -re '.Store.Persisted')
    [ "$persisted" -ge 1 ] && break
    sleep 0.1
done
if [ "$persisted" -lt 1 ]; then
    echo "chaos_smoke: store never persisted the new query" >&2
    exit 1
fi
kill -9 "$MOQOD"
wait "$MOQOD" 2>/dev/null || true
echo "chaos_smoke: SIGKILLed moqod after a write-through behind the checkpoint"

start_moqod
log_bytes=$(cat "$DIR"/seg-*.moqs | wc -c)
tail_bytes=$(scanned)
if [ "$tail_bytes" -le 0 ] || [ "$tail_bytes" -ge "$log_bytes" ]; then
    echo "chaos_smoke: the boot scanned $tail_bytes of $log_bytes log bytes, want only the tail" >&2
    exit 1
fi
echo "chaos_smoke: the boot scanned the $tail_bytes-byte tail of a $log_bytes-byte log"
check_warm "after the tail scan"
check_warm "after the tail scan" Q10 "$new_frontier"
echo "chaos_smoke: OK"
