#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark:
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary stay inside the checkout, under
# .bench_build, and the toolchain never reaches for the network.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir/gocache" "$build_dir/tmp"
export GOCACHE="$build_dir/gocache" GOTMPDIR="$build_dir/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build_dir/splitserve-bench" .)
exec "$build_dir/splitserve-bench" "$@"
