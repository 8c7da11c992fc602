#!/usr/bin/env bash
# Builds bpserve, bpworker and perfbench from the checkout in the current
# directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload cold-estimate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries, stores,
# logs, the determinism ledger) lands under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/bpserve ] || [ ! -d cmd/bpworker ]; then
	echo "perfbench: run from the root of a barrierpoint checkout" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
mkdir -p "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/" ./cmd/bpserve ./cmd/bpworker
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
