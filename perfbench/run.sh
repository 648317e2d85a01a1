#!/usr/bin/env bash
# Builds the benchmark from this checkout's own source and runs it:
#
#   bash perfbench/run.sh --workload chaos --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the binary and trace files all stay
# under .bench_build/ at the repository root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The engine-selection overrides must not leak in from the caller: the
# benchmark measures the program's defaults.
unset BWAP_ENGINE BWAP_NO_FASTFORWARD
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
