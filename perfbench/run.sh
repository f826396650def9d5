#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out/perfbench-run" "$@"
