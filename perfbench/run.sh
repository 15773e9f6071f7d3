#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload study-routes --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, logs,
# reports, spans) goes under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --root "$root" "$@"
