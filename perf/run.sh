#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command.  The binary, the Go build cache and
# the build's temporary files all go under .bench_build/ in the checkout,
# so nothing is written outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/eosperf" ./perf
exec "$build/eosperf" "$@"
