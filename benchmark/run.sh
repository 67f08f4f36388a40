#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the checkout's root:
#
#   bash benchmark/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, scratch stores, spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout, and never
# let it reach the network for a toolchain or a module.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$out/pgss-benchmark" .)
exec "$out/pgss-benchmark" "$@"
