#!/usr/bin/env bash
# Builds the field benchmark from source inside the checkout and runs it.
#
#   bash fieldbench/run.sh --workload bootstrap-crf --seed 1 --seconds 6 --trace 0
#
# Run it from the root of the repository. Everything the build and the runs
# leave behind goes under .bench_build/ there: the Go build cache, the
# benchmark binary, scratch corpora (removed when a run ends), the digest
# store and the traced runs' span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain inside the checkout and offline: the module needs only
# the standard library and the repository itself. XDG_CONFIG_HOME holds the
# go command's local telemetry counters.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# Every run uses one scheduler thread per CPU.
unset GOMAXPROCS

(cd "$root/fieldbench" && go build -o "$out/fieldbench" .) >&2
exec "$out/fieldbench" -root "$root" "$@"
