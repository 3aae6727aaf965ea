#!/usr/bin/env bash
# Builds servebench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash servebench/run.sh --workload cold-uniform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and temporary files, the binary,
# snapshots and traces.
set -euo pipefail
out="$(pwd)/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
