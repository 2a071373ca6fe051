#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the
# given arguments. The Go build cache, GOPATH and the toolchain's own
# config directory (it keeps telemetry counters there) are kept there too, so
# a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/nanosbench" .)
cd "$root"
exec "$build/nanosbench" "$@"
