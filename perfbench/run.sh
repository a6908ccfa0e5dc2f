#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload:
#   bash perfbench/run.sh --workload simulate-cycle|serve-mix|classify-zoo \
#     --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to stderr; stdout
# carries only the benchmark's two JSON lines (stamp, then result).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/)" >&2
  exit 2
fi

dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
