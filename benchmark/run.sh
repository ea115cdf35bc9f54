#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, config, module cache) stays in there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/voltage-bench" .)
exec "$build/voltage-bench" "$@"
