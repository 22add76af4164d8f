#!/usr/bin/env bash
# Builds the system binaries and the benchmark driver from source, then
# runs one benchmark run. Run from the repository root:
#
#   bash benchmark/run.sh --workload node-static --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, scratch inputs
# and saved results.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/clusterd ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark: run from the repository root (go.mod, cmd/ and benchmark/ must be present)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/clusterd ./cmd/clusterrouter ./cmd/clusterctl ./cmd/tracecheck >&2
(cd benchmark && go build -o "$build/bin/benchmark" .) >&2

exec "$build/bin/benchmark" -bin "$build/bin" -build-dir "$build" "$@"
