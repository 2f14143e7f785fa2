#!/usr/bin/env bash
# Build the reference benchmark from source, then run it. Run from the
# root of a source checkout; arguments pass through to reference.exe:
#
#   bash refbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Dune's output goes to stderr, so the last line of stdout stays the
# result object. The shared dune cache is off, so the build reads and
# writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./refbench/reference.exe >&2
exec ./_build/default/refbench/reference.exe "$@"
