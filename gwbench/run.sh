#!/usr/bin/env bash
# Builds the gateway benchmark from source in this checkout and runs it.
# Run from the repository root:
#
#	bash gwbench/run.sh --workload join-storm --seed 1 --seconds 30 --trace 0
#
# Build caches, the churn workload's state dir and span files go under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/gwbench" && go build -o "$build/gwbench" .)
exec "$build/gwbench" "$@"
