#!/usr/bin/env bash
# The concurrency layer under ThreadSanitizer, as CI's tsan job runs
# it:
#
#   tools/ci/tsan.sh <build-dir>
#
# <build-dir> is a tree configured with -DCMPSIM_SANITIZE=thread and
# built. Two steps, both at CMPSIM_JOBS=4: the runner's runPoints(),
# containment, journal, watchdog and knob suites, then the
# determinism gate (which batches runs at 1 and 4 workers). Stops at
# the first failed check, non-zero.
set -eo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$1" && pwd)
export CMPSIM_JOBS=4

echo "== Parallel-runner tests under TSan"
"$here/ctest_suites.sh" "$build" \
  'FaultContainment|JournalResume|Watchdog|ParallelRunner|EnvKnobs' -j 2

echo "== Determinism check under TSan"
"$build/tools/determinism_check"

echo "tsan: all checks passed"
