#!/usr/bin/env bash
# Builds the host benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-grid|hd-shared \
#       --seed <n> --seconds <s> --trace 0|1
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build in the checkout root. The benchmark
# module imports the simulator through `replace repro => ../`, so
# outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
