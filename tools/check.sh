#!/bin/sh
# Run the checks a change must pass, from any directory, stopping at the
# first that fails:
#
#   1. the tier-1 tests;
#   2. a short traced run of every benchmark workload, which exits non-zero
#      when an output fails its check or a traced layer is never reached;
#   3. the packaged fixtures, regenerated by tools/calibrate_fixtures.py in
#      a temporary copy of src and tools, which must match
#      src/lingmap/fixtures byte for byte (the tree is not written);
#   4. the output digest, printed to compare with the parent's
#      (tools/digest.py says how).
#
# In a git checkout it also fails when these steps modify a tracked file:
# it hashes `git diff HEAD` before step 1 and after step 4 and compares the
# two, so a tool or test that writes into the tree is caught.  Changes made
# before the run are allowed; they only have to stay as they were.
#
# Run:  sh tools/check.sh
set -eu
cd "$(dirname "$0")/.."

tree_diff() {
    if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ]; then
        git diff HEAD --binary | cksum
    fi
}
before=$(tree_diff)

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors
python3 bench/run.py --workload all --trace 1 --seconds 1
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
cp -R src tools "$copy"
python3 "$copy/tools/calibrate_fixtures.py" >/dev/null
diff -r "$copy/src/lingmap/fixtures" src/lingmap/fixtures
python3 tools/digest.py

if [ "$(tree_diff)" != "$before" ]; then
    echo "check.sh: these steps modified tracked files:" >&2
    git diff HEAD --stat >&2
    exit 1
fi
