#!/usr/bin/env bash
# Builds vcbench and perfbench from the checkout's sources, then runs
# perfbench. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-whatif --seed 1 --seconds 15 --trace 0
#
# Every build output, store and scratch file stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vcbench" || ! -d "$root/testdata/golden" ]]; then
	echo "perfbench: run from the root of a vcomputebench checkout" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/vcbench" ./cmd/vcbench
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
