#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root:
#
#   bash bench/run.sh --workload lookup --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under bench/.build/ in the
# checkout: the Go build cache, the benchmark binary, the routed and
# pathalias binaries under test, generated maps, daemon logs and span
# files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/routed" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: run from the root of a pathalias checkout (need go.mod, cmd/routed and bench/)" >&2
	exit 2
fi

out="$root/bench/.build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
