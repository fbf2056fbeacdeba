#!/bin/sh
# Run the checks a change must pass, from any directory, stopping at the
# first that fails:
#
#   1. the tier-1 tests;
#   2. a short traced run of every benchmark workload, which exits non-zero
#      when an output fails its check or a traced layer is never reached;
#   3. the output digest, printed to compare with the parent's
#      (tools/digest.py says how).
#
# Run:  sh tools/check.sh
set -eu
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors
python3 bench/run.py --workload all --trace 1 --seconds 1
python3 tools/digest.py
