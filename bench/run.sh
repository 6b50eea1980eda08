#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the Go
# toolchain writes (build cache, work directory, telemetry) is kept inside
# the checkout. The build fails, and so does this script, where the
# repository's own sources are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-modcacherw GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/oodb-bench" .
exec "$build/oodb-bench" "$@"
