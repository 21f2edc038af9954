#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Everything the build
# and the run write stays under <checkout>/.bench_build: the go command's
# build cache, its scratch directory and its telemetry counters included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
