#!/usr/bin/env bash
# Builds the serving benchmark and runs it from the repository root:
#
#   bash benchmark/run.sh --workload batch-small --seed 1 --seconds 24 --trace 0
#   bash benchmark/run.sh compare <parent results…> -- <change results…>
#
# Every build product, cache and result stays under .bench_build/ in the
# working directory; nothing is fetched from the network.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its settings and telemetry counters under the user
# config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR" "$build/bin" "$XDG_CONFIG_HOME"
(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
