#!/usr/bin/env bash
# run.sh builds the benchmark program from the sources of the checkout it
# is run in, then runs it with the given arguments:
#
#   bash benchmark/run.sh --workload paper-mix --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product and cache stays
# under .bench_build/ in that root, so the run reads and writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=

(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -root "$root" "$@"
