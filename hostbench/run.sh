#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it from the root
# of the checkout. All build state stays inside the checkout, under
# .bench_build/, and no module or toolchain is fetched.
#
#   bash hostbench/run.sh --workload grid-shared --seed 42 --seconds 10 --trace 0
#   bash hostbench/run.sh compare base.jsonl head.jsonl
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

# The go command keeps its caches, its env file and its telemetry under
# these directories; pointing them into the build directory keeps every
# write inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"

(cd hostbench && go build -o "$build/bin/hostbench" .) >&2
exec "$build/bin/hostbench" "$@"
