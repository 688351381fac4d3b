#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments:
#
#   bash bench/run.sh                               # all workloads, summary
#   bash bench/run.sh --workload case-study --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Build output, the Go build cache,
# the toolchain's telemetry counters and temporary files all stay under
# .bench_build/ in that root, and no module is downloaded: the benchmark
# needs nothing beyond the toolchain and this repository.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -C bench -o "$out/rvcap-benchmark" .
exec "$out/rvcap-benchmark" "$@"
