#!/usr/bin/env bash
# Builds directoryd and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload grow|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/perfbench in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The Go toolchain's caches, temporary files and user config (where it
# keeps telemetry counters) go under $out too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# Without the program beside it there is nothing to measure.
if [ ! -f go.mod ] || [ ! -d cmd/directoryd ]; then
	echo "perfbench: run.sh needs the repository root (go.mod, cmd/directoryd) as working directory" >&2
	exit 1
fi
# With telemetry on, every go command may start a detached sidecar
# process that outlives this script; 'go telemetry off' itself starts
# none, and the mode it writes (under $XDG_CONFIG_HOME) holds for the
# builds below.
go telemetry off
go build -o "$out/directoryd" ./cmd/directoryd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -directoryd "$out/directoryd" -work "$out/work" "$@"
