#!/usr/bin/env bash
# Builds the fleet authorization benchmark from source and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh -workload all -seed 1
#
# The binary and everything the Go command keeps (build cache, temporary
# files, module cache, configuration and telemetry) stay under .bench_build/
# in the repository, so a run reads and writes nothing else outside the Go
# installation. The first build compiles the standard library into that
# cache.
set -euo pipefail

# A shell started without a profile may lack the Go tarball's default place.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
