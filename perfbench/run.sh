#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the go command's configuration and telemetry counters
# (XDG_CONFIG_HOME), the binary and the artifact stores of the workloads.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
