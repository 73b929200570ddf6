#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh -workload fork-small -seed 1 -seconds 20 -trace 0
#   bash benchmark/run.sh -seed 1 -trace-dir bench-trace
#
# The Go build cache, module cache, go command state and the binary all stay
# under .bench_build/ in the current directory; no network is used.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
(
	cd benchmark
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0 \
		go build -buildvcs=false -o "$out/erebor-benchmark" .
) >&2
exec "$out/erebor-benchmark" "$@"
