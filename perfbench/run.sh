#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every build artifact, cache
# and temporary file stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# The other modes take the same route: `bash perfbench/run.sh compare
# base.out head.out` and `bash perfbench/run.sh aa --workload suite`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
