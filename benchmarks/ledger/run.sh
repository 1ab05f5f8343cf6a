#!/usr/bin/env bash
# Builds the campaign ledger from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash benchmarks/ledger/run.sh --workload step-heavy --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the campaign stores.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmarks/ledger" build -buildvcs=false -o "$out/ledger" .
exec "$out/ledger" "$@"
