#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark and a non-race
# mariond from the checkout this script sits in, then runs the benchmark
# with whatever flags it was given (see main.go). Everything the build
# writes, Go's build cache included, stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

start=$(date +%s%N)
go build -C bench -o "$build/bin/marionbench" .
go build -o "$build/bin/mariond" ./cmd/mariond
echo "bench: go build took $(( ($(date +%s%N) - start) / 1000000 )) ms (not part of any metric)" >&2

exec "$build/bin/marionbench" -root "$root" -mariond "$build/bin/mariond" "$@"
