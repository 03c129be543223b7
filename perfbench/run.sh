#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it from the
# checkout root. Every build and run artifact stays under .bench_build/.
# Arguments go to the benchmark, e.g.:
#   bash perfbench/run.sh --workload tiny-jobs --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
go -C perfbench build -o "$root/.bench_build/perfbench" . >&2
exec "$root/.bench_build/perfbench" "$@"
