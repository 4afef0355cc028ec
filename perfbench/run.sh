#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pr-twitter --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output, the Go build cache, the .mtx
# file bfs-road ingests and traced runs' chrome://tracing files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out=.bench_build/perfbench
mkdir -p "$out/tmp"

# Go wants absolute cache paths; nothing is read from or written to the
# user's Go environment.
abs=$(cd "$out" && pwd)
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" GOMODCACHE="$abs/gomod" GOTMPDIR="$abs/tmp"

(cd perfbench && go build -o "$abs/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
