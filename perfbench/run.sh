#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, the binary, scratch cache
# directories of the serve-mixed workload) stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
