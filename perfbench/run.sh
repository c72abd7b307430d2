#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root with the benchmark's flags, e.g.
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
# Build products, the Go build cache and the span dumps of traced runs go
# to $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (module sources not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
