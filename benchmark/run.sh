#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. Every
# file the go tool writes (build cache, module cache, telemetry counters)
# is kept under .bench_build/ so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/s2c2-bench" .
exec "$build/s2c2-bench" "$@"
