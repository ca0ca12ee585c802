#!/usr/bin/env bash
# Builds cmd/dpserved and the servebench client from this checkout, then
# runs the client with the given arguments, for example:
#
#   bash servebench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the run reports all stay under .bench_build/ in the checkout.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
root="$(pwd)"
export GOCACHE="$root/$out/gocache"
export GOMODCACHE="$root/$out/gomodcache"
export XDG_CONFIG_HOME="$root/$out/config"
export GOTMPDIR="$root/$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/dpserved" ./cmd/dpserved
go -C servebench build -o "$root/$out/servebench" .
exec "$out/servebench" -server "$out/dpserved" -out "$out/servebench-runs" "$@"
