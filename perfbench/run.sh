#!/usr/bin/env bash
# Builds the olevgrid benchmark from the source tree around it and runs
# it with every argument passed through, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload durable --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's journal directories
# all stay under .bench_build in the current directory. Outside a full
# source tree the build fails and the script exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
