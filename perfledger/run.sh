#!/usr/bin/env bash
# Builds the ledger from source and runs it from the repository root:
#
#   bash perfledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the run's
# JSON result. Any build failure (e.g. a tree without the engine
# sources) exits non-zero before a result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# No shared dune cache: the build reads and writes only this tree.
export DUNE_CACHE=disabled
dune build --root . ./perfledger/ledger.exe 1>&2
exec ./_build/default/perfledger/ledger.exe run "$@"
