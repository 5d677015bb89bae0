#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument goes to
# perf.exe. Run from the repository root, e.g.
#   bash bench/perf/run.sh --workload hot-tcp --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line on stdout stays the
# run's JSON summary. The shared dune cache is off: the build reads and
# writes only _build/ inside this checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
