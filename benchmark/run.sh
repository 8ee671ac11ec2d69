#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary, trace dumps) stays
# in .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/wtbench" .
cd "$here/.."
exec "$out/wtbench" "$@"
