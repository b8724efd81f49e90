#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload table1-simple --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, the Go build cache included.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
