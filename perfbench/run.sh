#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-upload --seed 44 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ in the
# checkout; the Go toolchain is kept offline and local.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
