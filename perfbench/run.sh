#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, generated
# traces, daemon job store, span dumps) stays under .bench_build/ in the
# checkout. The build needs the repository's own module one directory up,
# so a copy of perfbench/ without it fails here, before printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
