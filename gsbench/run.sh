#!/usr/bin/env bash
# Builds the graphsketch benchmark from source and runs it:
#
#   bash gsbench/run.sh --workload vconn-dense --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) stays under .bench_build/ there.
# Without the library sources next to gsbench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/gsbench" && go build -o "$out/gsbench" .)
exec "$out/gsbench" "$@"
