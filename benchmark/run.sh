#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 22 --trace 0
#
# Every build output, Go build cache entry and temporary file stays under
# .bench_build/ in the checkout. The harness itself builds cmd/igpart and
# cmd/igpartd from the checkout's sources before it measures anything.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/igpartd" ] || [ ! -d "$root/cmd/igpart" ]; then
    echo "benchmark: $root is not an igpart checkout (run from the repository root)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/igpart-bench" .)
exec "$build/igpart-bench" "$@"
