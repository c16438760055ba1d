#!/usr/bin/env bash
# Builds the benchmark against the checkout it sits in and runs it. Every
# file the build writes (binary, compiler cache, toolchain config) lands in
# .bench_build at the root of the checkout, so a run reads and writes
# nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C "$here" -o "$build/ironfs-bench" .
exec "$build/ironfs-bench" "$@"
