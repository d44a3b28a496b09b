#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload search-bert --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare a.json b.json
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, temp directories
# and span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/go-cache" "$out/gopath" "$out/config"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/magis-bench" .)

cd "$root"
export TMPDIR="$out/tmp"
exec "$out/magis-bench" "$@"
