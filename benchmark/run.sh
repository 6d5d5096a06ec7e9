#!/usr/bin/env bash
# Builds pmserve, pmrouter and the fleet benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload bin-k4 --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, the binaries, temporary checkpoints and traces all stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pmserve || ! -d cmd/pmrouter || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root; it needs go.mod, cmd/pmserve, cmd/pmrouter and benchmark/" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/" ./cmd/pmserve ./cmd/pmrouter
(cd benchmark && go build -o "$out/bin/fleetbench" .)

if [[ "${1:-}" == compare ]]; then
	exec "$out/bin/fleetbench" "$@"
fi
exec "$out/bin/fleetbench" -bin "$out/bin" "$@"
