#!/usr/bin/env bash
# Builds verdictbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash verdictbench/run.sh --workload classify-exhaustive --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# per-run scratch directories and the trace files.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd verdictbench && go build -o "$build/verdictbench-bin" .) >&2
exec "$build/verdictbench-bin" "$@"
