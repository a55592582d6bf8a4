#!/usr/bin/env bash
# Entry point for the benchmark driver (see ../BENCHMARK.json):
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds the harness and the two daemons from the checkout's own
# source into .bench_build/ at the checkout's root, keeping the Go build
# cache, temporary files and toolchain bookkeeping in there too so that
# nothing outside the checkout is written, then hands over to the
# harness. A checkout without the repository's source fails here, in
# `go build`, before anything is measured.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"

# With telemetry in its default "local" mode the go command starts a
# detached copy of itself once a day per configuration directory to
# write reports; in a fresh checkout that is every first build, and the
# child outlives this script. Switch it off before go runs at all.
echo off >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

cd "$root"
go build -o "$build/bin/" ./cmd/authd ./cmd/resolvd
(cd bench && go build -o "$build/bin/bench" .)

unset GOCACHE GOTMPDIR XDG_CONFIG_HOME GOFLAGS
exec "$build/bin/bench" -bin "$build/bin" "$@"
