#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cell-paper --seed 42 --seconds 20 --trace 0
#
# The Go build cache, temporary files and every output stay under
# .bench_build/ in the checkout.
set -euo pipefail

if ! grep -qs '^module coolpim$' go.mod; then
	echo "perfbench: run from the root of a coolpim checkout (no coolpim go.mod here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
