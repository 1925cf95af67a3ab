#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark into the checkout and run it.
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ at the root of the checkout; nothing is
# downloaded. Arguments are passed through to the program (see main.go).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
