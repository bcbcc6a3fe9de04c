#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the module under test. Everything the build
# and the run write stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the cebinae module" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
