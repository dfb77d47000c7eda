#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hband-cp --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh diff base.jsonl head.jsonl
#
# The binary, the Go build cache and temporary files stay in .bench_build/
# at the root of the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a MEMPHIS checkout (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
