#!/usr/bin/env bash
# Builds rdxd and the benchmark from the checkout's sources and runs the
# benchmark. Run from the repository root:
#
#   bash rdxbench/run.sh --workload ingest-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's run history stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/rdxd" ./cmd/rdxd >&2
(cd rdxbench && go build -o "$out/rdxbench" .) >&2
exec "$out/rdxbench" -rdxd "$out/rdxd" -out "$out/rdxbench-out" "$@"
