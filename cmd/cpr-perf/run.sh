#!/bin/sh
# Builds cpr-perf (its own module, cmd/cpr-perf/go.mod, over the engine
# module of this checkout) and runs it with the given arguments:
#
#   sh cmd/cpr-perf/run.sh --workload suite-solver --seed 1 --seconds 25 --trace 0
#   sh cmd/cpr-perf/run.sh -compare A/*.json B/*.json
#
# Run it from the repository root. Everything it writes (the Go build
# cache and configuration, the binary, the daemons' state) goes under
# $CARGO_TARGET_DIR, .bench_build by default, inside the checkout.
set -eu

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "cpr-perf: run from the repository root (no go.mod or engine sources here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/work"

# XDG_CONFIG_HOME keeps the go command's configuration and telemetry, and
# TMPDIR the compiler's scratch files, out of the home and /tmp directories.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C cmd/cpr-perf -o "$out/cpr-perf" .

exec "$out/cpr-perf" -work "$out/work" "$@"
