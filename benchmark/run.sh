#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:  bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
# Build products and scratch state stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
