#!/usr/bin/env bash
# The test job's checks, as CI runs them on each leg of its matrix:
#
#   tools/ci/test.sh <build-dir> [--perfbench]
#
# <build-dir> is a configured and built tree (Release, ASan+UBSan or
# any other build type). In order: the whole ctest suite, the
# statistical-sampling suite on its own, the determinism gate, the
# quickstart example and, with --perfbench, a short run of each
# benchmark workload. A CMPSIM_AUDIT value in the environment reaches
# the first four (the audit leg sets it); the benchmark runs with no
# CMPSIM_* variable, as it requires. Run from the repository root.
# Stops at the first failed check, non-zero.
set -eo pipefail

usage() {
    echo "usage: $0 <build-dir> [--perfbench]" >&2
    exit 2
}
if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1" ]; then
    usage
fi
perfbench=0
if [ $# -eq 2 ]; then
    [ "$2" = "--perfbench" ] || usage
    perfbench=1
fi
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$1" && pwd)

echo "== Test"
ctest --test-dir "$build" --output-on-failure -j 4

# Redundant with the full run above, but pinned so the
# statistical-sampling contract (DESIGN.md §14) cannot silently drop
# out of discovery, in Release and under ASan/UBSan alike.
echo "== Sampling engine suite"
"$here/ctest_suites.sh" "$build" '^sample\.'

echo "== Determinism check"
"$build/tools/determinism_check"

# README's smallest end-to-end use of the library must keep running.
echo "== Quickstart example"
quickstart=$("$build/examples/quickstart")
echo "$quickstart"
grep -q '^speedup: ' <<<"$quickstart"

if [ "$perfbench" -eq 1 ]; then
    # perfbench/run.py builds the benchmark in its own tree and
    # refuses to run with any CMPSIM_* variable set, so this step
    # sets none. Its last stdout line is the run's JSON record.
    # zeus_full is the headline config; mgrid_base16 is the bypass
    # case, where the timed path's kernel and queues dominate.
    # table5_batch's traced run takes the sampled path:
    # MatrixSampler, fastForward() on an armed system and the
    # sampled interaction gate, which must pass for "correct".
    echo "== Benchmark builds and runs"
    unset CMPSIM_AUDIT
    for run in "zeus_full 0" "mgrid_base16 0" "table5_batch 1"; do
        set -- $run
        python3 perfbench/run.py --workload "$1" --seed 1 \
          --seconds 2 --trace "$2" | tee "perfbench-$1.txt"
        tail -n 1 "perfbench-$1.txt" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True, r
assert r["failed"] == 0, r
'
    done
fi

echo "test: all checks passed"
