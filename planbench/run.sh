#!/usr/bin/env bash
# Builds the planner benchmark from source and runs one workload:
#
#   bash planbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# (Go build cache, binary, span files, the service workload's job store)
# stays under .bench_build/ in that root.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
# The module needs nothing beyond the standard library and the repository,
# so GOPROXY=off makes any attempt to fetch a module fail at once.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$bench_dir" && go build -o "$out/planbench" .) >&2
cd "$root"
exec "$out/planbench" --out-dir "$out" "$@"
