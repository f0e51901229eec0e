#!/usr/bin/env bash
# Builds vapd and the benchmark from the checkout this script lives in and
# runs the benchmark with the given arguments. Everything the build and the
# run write stays inside the checkout: .bench_build/ (binaries, Go caches)
# and bench/out/ (logs, span files, vapd data directories).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$root/bench/out"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/vapd" ./cmd/vapd)
(cd "$root/bench" && go build -o "$build/vapbench" .)
cd "$root"
exec "$build/vapbench" -vapd "$build/vapd" -out "$root/bench/out" "$@"
