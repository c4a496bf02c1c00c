#!/usr/bin/env bash
# Builds crowdbench from the checkout's own source and runs it with the
# arguments given. Run it from the repository root:
#
#   bash crowdbench/run.sh --workload live-dashboard --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/crowdbench" && go build -o "$build/crowdbench" .)
exec "$build/crowdbench" "$@"
