#!/usr/bin/env bash
# Builds dmlsbench from source and runs it from the checkout root,
# passing every flag through (see bench/README.md):
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload serve-mix --seed 2 --seconds 40 --trace 0
#
# The Go build cache, temporary files and the go command's configuration
# (and so its telemetry counters) stay under .bench_build, inside the
# checkout, and the toolchain never reaches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go -C bench build -o "$out/dmlsbench" ./cmd/dmlsbench
exec "$out/dmlsbench" "$@"
