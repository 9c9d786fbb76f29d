#!/usr/bin/env bash
# Builds the benchmark program (perfbench) from source and runs it. Run from
# the root of the repository checkout; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload replicas-exact --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and traces stay under .bench_build/ in
# the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# The standard install location, for environments whose PATH lacks go.
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
mkdir -p "$GOTMPDIR"
go telemetry off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
