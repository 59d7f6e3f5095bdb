#!/usr/bin/env bash
# Builds the benchmark harness and dtrd from this checkout's source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload netday-100 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke            # every workload for a few seconds
#
# Everything the build and the run write (Go build cache, binaries,
# checkpoint directories, span dumps) stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/dtrd" repro/cmd/dtrd) >&2
cd "$here"
exec "$out/perfbench" -dtrd "$out/dtrd" -work "$out/tmp" "$@"
