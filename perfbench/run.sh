#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload zipf --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# current directory: the Go build cache, the binary, server data and traces.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.perfbench
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
