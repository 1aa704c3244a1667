#!/usr/bin/env bash
# Builds `modpeg` and the benchmark from this tree, then makes one run:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Builds, the Go build cache, temporary
# files, registries and span files all stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/modpeg || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a modpeg checkout" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/modpeg" ./cmd/modpeg
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server "$build/bin/modpeg" -out "$build/perfbench" "$@"
