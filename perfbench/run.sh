#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the checkout root, e.g.
#
#   bash perfbench/run.sh --workload round-devices --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
