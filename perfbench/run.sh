#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet_stream --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its settings and telemetry counters under the
# user config directory; keep those inside the checkout too.
(cd perfbench && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
