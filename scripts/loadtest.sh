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
# Phase 2 is the kernel circuit-breaker drill: a second server instance
# starts with -chaos-kernel-errors 15, so five fills of a kernel-backed
# suite exhaust their retries and trip the breaker. The script asserts its
# contract: /healthz says "degraded" (still 200), kernel-free plans and
# sweeps answer byte-identically to their closed-breaker answers, the
# kernel-backed suite answers 200 with a "kernel unavailable" cell on both
# routes, and the dmls_breaker_state gauge reads 1 (open). After the open
# period the same kernel-backed request is the probe fill: it succeeds,
# /healthz says "ok" again and the gauge reads 0 (closed).
#
# Phase 3 is the absorb drill: a third server instance starts with
# -chaos-kernel-errors 2, inside the default 3 kernel attempts, and the
# script asserts that retries absorb every fault — kernel-backed sweeps
# and plans answer 200 with no error cell, the breaker stays closed, and
# dmls_retries_total is positive.
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

# expect asserts a numeric condition on one series of a Prometheus
# exposition file: expect <file> <series> <awk comparison>, e.g.
#   expect metrics.prom dmls_breaker_state '== 1'
expect() {
    if ! awk -v series="$2" "\$1 == series { found = 1; ok = (\$2 $3) } END { exit !(found && ok) }" "$1"; then
        echo "loadtest.sh: metrics check failed: $2 $3" >&2
        cat "$1" >&2
        exit 1
    fi
}

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
expect "$workdir/metrics.prom" dmls_requests_total '> 0'
requests=$(awk '$1 == "dmls_requests_total" { print $2 }' "$workdir/metrics.prom")
echo "loadtest.sh: metrics smoke ok (duration observations: $dur_count, requests_total: $requests)" >&2

# Clean drain: SIGTERM, then the server must exit 0 inside the drain window.
drain "$server_pid" "$workdir/serve.log"
if ! grep -q "drained" "$workdir/serve.log"; then
    echo "loadtest.sh: no drain notice in the server log:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
trap 'rm -rf "$workdir"' EXIT

# ---------------------------------------------------------------------------
# Phase 2: kernel circuit-breaker trip-and-recover drill.
#
# A fresh server instance where every kernel coordinate fails its first 15
# attempts with a transient fault: each of the chaos suite's first five
# fills burns its three attempts and fails, which trips the breaker (five
# failed fills is its minimum sample count), and the sixth fill of the same
# coordinates succeeds. The open period is long enough to assert the open
# contract before the probe fill is admitted.
BREAKER_OPEN_FOR="${BREAKER_OPEN_FOR:-3s}"
PORT2=$((PORT + 1))
base2="http://127.0.0.1:$PORT2"

# The tripwire: a kernel-backed mrf suite. Small graph so the doomed
# retries burn milliseconds, not seconds.
cat >"$workdir/chaos-suite.json" <<'EOF'
{
  "name": "breaker drill: kernel-backed graph",
  "scenarios": [
    {
      "name": "bp dns, chaos target",
      "workload": {
        "family": "mrf",
        "graph": { "family": "dns", "vertices": 1200, "seed": 7 },
        "states": 2,
        "trials": 2
      },
      "hardware": { "preset": "dl980-core" },
      "protocol": { "kind": "shared-memory" },
      "max_workers": 4
    }
  ]
}
EOF

# The kernel-free probe: a closed-form, convergence-bearing suite that
# never fills a kernel estimate, so the open breaker must not touch it.
cat >"$workdir/probe-suite.json" <<'EOF'
{
  "name": "breaker drill: kernel-free probe",
  "scenarios": [
    {
      "name": "conv ANN on K40s, 1 GbE two-stage tree",
      "workload": {
        "family": "gd-weak",
        "flops_per_example": 15e9,
        "batch_size": 128,
        "parameters": 25e6,
        "precision_bits": 32
      },
      "hardware": { "preset": "nvidia-k40" },
      "protocol": { "kind": "two-stage-tree", "bandwidth_bits_per_sec": 1e9 },
      "convergence": { "rule": "diminishing", "base_iterations": 50000, "critical_batch_growth": 32 },
      "max_workers": 128
    }
  ]
}
EOF
jq -c '{suite: .}' "$workdir/chaos-suite.json" >"$workdir/chaos-req.json"
jq -c '{suite: .}' "$workdir/probe-suite.json" >"$workdir/probe-req.json"
jq -c '{suite: .}' examples/suites/fig2-bandwidth-sweep.json >"$workdir/sweep-req.json"

"$workdir/dmls-serve" -addr "127.0.0.1:$PORT2" -chaos-kernel-errors 15 \
    -breaker-open-for "$BREAKER_OPEN_FOR" 2>"$workdir/serve2.log" &
server2_pid=$!
trap 'kill "$server2_pid" 2>/dev/null || true; wait "$server2_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

await_healthy "$server2_pid" "$base2" "$workdir/serve2.log"

# The kernel-free answers with the breaker closed.
curl -fsS -X POST -d @"$workdir/probe-req.json" "$base2/v1/plan" >"$workdir/closed-plan.json"
curl -fsS -X POST -d @"$workdir/sweep-req.json" "$base2/v1/sweep" >"$workdir/closed-sweep.json"

# Trip the breaker: five chaos-suite requests across both routes, each one
# fill whose three attempts all fail transiently.
for route in plan sweep plan sweep plan; do
    curl -fsS -o /dev/null -X POST -d @"$workdir/chaos-req.json" "$base2/v1/$route"
done

# Open-state contract. /healthz: degraded but alive (200).
hz=$(curl -fsS "$base2/healthz")
if [ "$hz" != "degraded" ]; then
    echo "loadtest.sh: healthz should report degraded while the breaker is open, got: $hz" >&2
    exit 1
fi

# Kernel-free requests answer exactly as with the breaker closed.
curl -fsS -X POST -d @"$workdir/probe-req.json" "$base2/v1/plan" >"$workdir/open-plan.json"
curl -fsS -X POST -d @"$workdir/sweep-req.json" "$base2/v1/sweep" >"$workdir/open-sweep.json"
for doc in plan sweep; do
    if ! cmp -s "$workdir/closed-$doc.json" "$workdir/open-$doc.json"; then
        echo "loadtest.sh: kernel-free $doc changed while the breaker was open:" >&2
        diff "$workdir/closed-$doc.json" "$workdir/open-$doc.json" >&2 || true
        exit 1
    fi
done

# The kernel-backed suite answers 200 on both routes, its cell failed fast.
for route in plan sweep; do
    code=$(curl -s -o "$workdir/open-chaos-$route.json" -w '%{http_code}' \
        -X POST -d @"$workdir/chaos-req.json" "$base2/v1/$route")
    if [ "$code" != "200" ] || ! grep -q 'kernel unavailable' "$workdir/open-chaos-$route.json"; then
        echo "loadtest.sh: open breaker: $route should answer 200 with a kernel-unavailable cell, got $code:" >&2
        cat "$workdir/open-chaos-$route.json" >&2
        exit 1
    fi
done

curl -fsS "$base2/metrics" >"$workdir/metrics2-open.prom"
expect "$workdir/metrics2-open.prom" dmls_breaker_state '== 1'
expect "$workdir/metrics2-open.prom" dmls_retries_total '> 0'
echo "loadtest.sh: breaker tripped — healthz degraded, kernel-free answers unchanged, kernel cells unavailable" >&2

# Recovery: wait out the open period; the same chaos request is the probe
# fill, and its coordinates have used up their 15 failing attempts.
sleep "$(echo "$BREAKER_OPEN_FOR" | sed 's/s$//').2"
code=$(curl -s -o "$workdir/recovered.json" -w '%{http_code}' \
    -X POST -d @"$workdir/chaos-req.json" "$base2/v1/sweep")
if [ "$code" != "200" ] || grep -q '"error"' "$workdir/recovered.json"; then
    echo "loadtest.sh: the probe fill should succeed after the open period, got $code:" >&2
    cat "$workdir/recovered.json" >&2
    exit 1
fi
hz=$(curl -fsS "$base2/healthz")
if [ "$hz" != "ok" ]; then
    echo "loadtest.sh: healthz should be back to ok after recovery, got: $hz" >&2
    exit 1
fi
curl -fsS "$base2/metrics" >"$workdir/metrics2-closed.prom"
expect "$workdir/metrics2-closed.prom" dmls_breaker_state '== 0'
echo "loadtest.sh: breaker recovered — probe fill succeeded, healthz ok, breaker gauge closed" >&2

drain "$server2_pid" "$workdir/serve2.log"
trap 'rm -rf "$workdir"' EXIT

# ---------------------------------------------------------------------------
# Phase 3: retry absorb drill.
#
# A fresh server instance where every kernel computation fails its first
# two attempts with a transient fault, then succeeds: the default policy's
# three attempts per kernel computation absorb that on both routes. The
# plan request uses another graph seed, so it computes its own kernel
# instead of reading the sweep's cached estimates.
PORT3=$((PORT + 2))
base3="http://127.0.0.1:$PORT3"
jq -c '.suite.scenarios[0].workload.graph.seed = 8' "$workdir/chaos-req.json" >"$workdir/chaos-req-plan.json"

"$workdir/dmls-serve" -addr "127.0.0.1:$PORT3" -chaos-kernel-errors 2 2>"$workdir/serve3.log" &
server3_pid=$!
trap 'kill "$server3_pid" 2>/dev/null || true; wait "$server3_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

await_healthy "$server3_pid" "$base3" "$workdir/serve3.log"

for route in sweep plan; do
    req="$workdir/chaos-req.json"
    if [ "$route" = plan ]; then req="$workdir/chaos-req-plan.json"; fi
    code=$(curl -s -o "$workdir/absorb-$route.json" -w '%{http_code}' -X POST -d @"$req" "$base3/v1/$route")
    if [ "$code" != "200" ]; then
        echo "loadtest.sh: absorb $route should answer 200, got $code:" >&2
        cat "$workdir/absorb-$route.json" >&2
        exit 1
    fi
    if grep -q '"error"' "$workdir/absorb-$route.json"; then
        echo "loadtest.sh: absorb $route leaked a kernel fault past the retries:" >&2
        cat "$workdir/absorb-$route.json" >&2
        exit 1
    fi
done
curl -fsS "$base3/metrics" >"$workdir/metrics3.prom"
expect "$workdir/metrics3.prom" dmls_breaker_state '== 0'
expect "$workdir/metrics3.prom" dmls_retries_total '> 0'
retries3=$(awk '$1 == "dmls_retries_total" { print $2 }' "$workdir/metrics3.prom")
echo "loadtest.sh: retries absorbed the faults — sweep and plan 200 with no error cell, breaker closed, $retries3 retries" >&2

drain "$server3_pid" "$workdir/serve3.log"
trap 'rm -rf "$workdir"' EXIT

summary=$(echo "$summary" | jq '. + {"clean_drain": true, "breaker_drill": "pass"}')
if [ -n "$OUT" ]; then
    echo "$summary" >"$OUT"
    echo "loadtest.sh: wrote $OUT" >&2
fi
echo "$summary"
