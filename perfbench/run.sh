#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload fleet-stream --seed 2004 --seconds 30 --trace 0
#
# Every build product (the Go build cache and its temporary files, the go
# command's telemetry counters, the binary) goes under
# .bench_build/ in the current directory, so nothing is written outside
# the checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
export GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
