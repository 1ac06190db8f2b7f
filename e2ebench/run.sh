#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#
#   bash e2ebench/run.sh --workload offline-ccs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, session
# journals, span dumps) goes under .bench_build/ at the checkout root. The
# build needs the repository's own module one directory up, so in a
# directory holding only the benchmark it fails and the script exits
# nonzero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the go command's caches, temporary files and its config directory
# (telemetry counters) inside the checkout, and keep it off the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/e2ebench" .) >&2
cd "$root"
exec "$build/e2ebench" -dir "$build" "$@"
