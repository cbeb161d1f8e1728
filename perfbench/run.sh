#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fcgi-ref --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout: the Go
# build cache, the binary, and the traced runs' Chrome trace files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never let it fetch a toolchain or a module.
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
