#!/usr/bin/env bash
# orphan_guard.sh fails when an internal package is linked into no binary.
# It builds every ./cmd/... and ./examples/... main without inlining (so a
# reachable function always keeps its own symbol), collects the
# dmlscale/internal/... package paths that `go tool nm` lists, and compares
# them with `go list ./internal/...`. Test-support packages (named *test)
# are exempt. Run from anywhere: scripts/orphan_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -gcflags=all=-l -o "$bin/" ./cmd/... ./examples/...
for f in "$bin"/*; do go tool nm "$f"; done |
	awk '{print $3}' | grep -o '^dmlscale/internal/[^.]*' | sort -u >"$bin/linked"
go list ./internal/... | grep -v 'test$' | sort >"$bin/packages"

orphans=$(comm -23 "$bin/packages" "$bin/linked")
if [ -n "$orphans" ]; then
	echo "internal packages that no cmd/ or examples/ binary links:" >&2
	echo "$orphans" >&2
	exit 1
fi
echo "orphan guard: all $(wc -l <"$bin/packages") internal packages are linked"
