#!/usr/bin/env bash
# Builds the benchmark from source and runs it. BENCHMARK.json names this
# script as its command; every argument is passed to the binary.
#
# Everything the build writes (Go build cache, temp files, the binary) goes
# under .bench_build/ in the checkout, so a run leaves nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/gridbench" .
cd "$root"
exec "$out/gridbench" "$@"
