#!/bin/sh
# Entry point of BENCHMARK.json: build the benchmark from the checkout it
# sits in and run it with the caller's flags. Every build product stays
# under .bench_build/ in the checkout: the Go build cache and work
# directories, and through HOME the toolchain's GOPATH, env file and
# telemetry counters.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
cd "$root"
exec "$out/bin/benchmark" "$@"
