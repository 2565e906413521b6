#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository; every argument is passed to perfbench:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced runs' span files all go
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep every Go tool write (build cache, module cache, telemetry and
# its config) inside the checkout; the build needs no network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
