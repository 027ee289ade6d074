#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments (--workload, --seed, --seconds, --trace). Run from the root
# of the checkout: bash perfbench/run.sh --workload batch --seed 1
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/perfbench: the Go build cache, the binary, the generated inputs,
# the write-ahead logs and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
