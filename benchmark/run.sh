#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Everything
# the build and the run write — Go's build cache, its telemetry settings,
# temporary files, the binary — stays under .bench_build/ in that checkout, so
# neither depends on, nor leaves anything in, the home directory or /tmp.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
# The go command keeps its telemetry files under the user's configuration
# directory; GOENV keeps pointing at the user's own go/env.
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-${HOME:-}/.config}/go/env}"
export XDG_CONFIG_HOME="$build/config"
# With telemetry in its default mode the go command starts, once a day for
# each configuration directory, a detached child that outlives it (and, when
# the build fails at once, this script). Mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/tdb-benchmark" ./benchmark
exec "$build/tdb-benchmark" "$@"
