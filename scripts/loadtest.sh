#!/usr/bin/env bash
# loadtest.sh — smoke-test dmls-serve under pressure and record the result.
#
# Builds dmls-serve, starts it with a deliberately small -max-inflight so
# admission control is observable, replays every examples/suites/*.json as
# both a /v1/sweep and a /v1/plan request at higher client concurrency, and
# asserts the three robustness properties end to end:
#
#   1. every request is either served (200) or cleanly shed (429) — never
#      an unexplained error, and at this concurrency some MUST be shed;
#   2. /healthz answers 200 throughout the storm;
#   3. SIGTERM drains: the server exits 0 within the drain deadline.
#
# It also smoke-tests the metrics endpoint: the Prometheus text exposition
# must carry well-formed # TYPE lines, a populated request-duration
# histogram and a positive dmls_requests_total.
#
# The p50/p99/shed-rate summary prints on stdout and, when OUT is set, is
# also written there (never over an existing file). This is a robustness
# smoke, not a benchmark: for performance, run bash bench/run.sh.
#
# Usage:
#   scripts/loadtest.sh                       # prints the summary
#   OUT=/tmp/smoke.json scripts/loadtest.sh   # also records it
#   REQUESTS=20 CONCURRENCY=4 scripts/loadtest.sh

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-}"
PORT="${PORT:-18080}"
REQUESTS="${REQUESTS:-60}"
CONCURRENCY="${CONCURRENCY:-8}"
MAX_INFLIGHT="${MAX_INFLIGHT:-2}"
DRAIN_TIMEOUT="${DRAIN_TIMEOUT:-10s}"

if [ -n "$OUT" ] && [ -e "$OUT" ]; then
    echo "loadtest.sh: $OUT already exists; pass an OUT=<path> that does not." >&2
    exit 1
fi

# await_healthy <pid> <base url> <server log>: poll /healthz until the
# server answers, failing fast if it dies on startup.
await_healthy() {
    for _ in $(seq 1 100); do
        if curl -fsS -o /dev/null "$2/healthz" 2>/dev/null; then return; fi
        if ! kill -0 "$1" 2>/dev/null; then
            echo "loadtest.sh: dmls-serve at $2 died on startup:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "loadtest.sh: dmls-serve at $2 never became healthy" >&2
    exit 1
}

# drain <pid> <server log>: SIGTERM, then the server must exit 0 inside
# its drain window.
drain() {
    kill -TERM "$1"
    rc=0
    wait "$1" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "loadtest.sh: dmls-serve did not drain cleanly (exit $rc):" >&2
        cat "$2" >&2
        exit 1
    fi
}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dmls-serve" ./cmd/dmls-serve
go build -o "$workdir/loadtest" ./scripts/loadtest

"$workdir/dmls-serve" -addr "127.0.0.1:$PORT" -max-inflight "$MAX_INFLIGHT" \
    -drain-timeout "$DRAIN_TIMEOUT" 2>"$workdir/serve.log" &
server_pid=$!
# Kill the server on any failure path so the trap's rm never races a writer.
trap 'kill "$server_pid" 2>/dev/null || true; wait "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

base="http://127.0.0.1:$PORT"
await_healthy "$server_pid" "$base" "$workdir/serve.log"

"$workdir/loadtest" -base "$base" -suites examples/suites \
    -requests "$REQUESTS" -concurrency "$CONCURRENCY" \
    -server-max-inflight "$MAX_INFLIGHT" >"$workdir/summary.json"

summary=$(cat "$workdir/summary.json")
shed=$(echo "$summary" | jq -r .shed)
if [ "$shed" -eq 0 ]; then
    echo "loadtest.sh: expected admission control to shed at this concurrency, but shed=0" >&2
    exit 1
fi

# Metrics smoke, scraped while the server is still warm from the storm:
# # TYPE lines present and well-formed, the per-route duration histogram
# actually populated, and the request counter moving.
curl -fsS "$base/metrics" >"$workdir/metrics.prom"
if ! grep -q '^# TYPE dmls_requests_total counter$' "$workdir/metrics.prom"; then
    echo "loadtest.sh: Prometheus exposition missing dmls_requests_total TYPE line:" >&2
    cat "$workdir/metrics.prom" >&2
    exit 1
fi
if awk '/^# TYPE /{ if (NF != 4 || ($4 != "counter" && $4 != "gauge" && $4 != "histogram")) bad=1 } END { exit bad }' "$workdir/metrics.prom"; then :; else
    echo "loadtest.sh: malformed # TYPE line in Prometheus exposition:" >&2
    grep '^# TYPE' "$workdir/metrics.prom" >&2
    exit 1
fi
dur_count=$(awk '$1 ~ /^dmls_request_duration_seconds_count/ { sum += $2 } END { print sum + 0 }' "$workdir/metrics.prom")
if [ "$dur_count" -eq 0 ]; then
    echo "loadtest.sh: request-duration histogram empty after the load storm" >&2
    exit 1
fi
requests=$(awk '$1 == "dmls_requests_total" { print $2 }' "$workdir/metrics.prom")
if [ "${requests:-0}" -eq 0 ]; then
    echo "loadtest.sh: dmls_requests_total missing or zero after the load storm" >&2
    exit 1
fi
echo "loadtest.sh: metrics smoke ok (duration observations: $dur_count, requests_total: $requests)" >&2

# Clean drain: SIGTERM, then the server must exit 0 inside the drain window.
drain "$server_pid" "$workdir/serve.log"
if ! grep -q "drained" "$workdir/serve.log"; then
    echo "loadtest.sh: no drain notice in the server log:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
trap 'rm -rf "$workdir"' EXIT

summary=$(echo "$summary" | jq '. + {"clean_drain": true}')
if [ -n "$OUT" ]; then
    echo "$summary" >"$OUT"
    echo "loadtest.sh: wrote $OUT" >&2
fi
echo "$summary"
