#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root, e.g.
#
#   bash bench/run.sh --workload sim-sweep3d-4k --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) stays in
# .bench_build/ under the current directory; no network access is needed.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/wfbench" .
exec "$out/wfbench" "$@"
