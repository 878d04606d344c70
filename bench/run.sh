#!/usr/bin/env bash
# Build the benchmark from source into .bench_build/ and run it. Called from
# the root of a checkout as `bash bench/run.sh --workload <name> ...`; every
# file the build or the run writes stays inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/cmrealbench" .)
exec "$out/cmrealbench" "$@"
