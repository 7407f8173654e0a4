#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, binary, temporaries)
# stays under .bench_build/ in the repository root.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off

(cd "$bench_dir" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
