#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload du-lib --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, server state and span
# dumps. The last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

# The benchmark module sits beside the repository's own module and
# builds it from ../ (see go.mod), so a copy without the sources fails
# here.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
