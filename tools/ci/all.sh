#!/usr/bin/env bash
# Every CI job that needs no extra toolchain, in one local run:
#
#   tools/ci/all.sh <build-dir> [<tsan-build-dir>]
#
# <build-dir> is a configured and built Release tree. It gets the test
# job's release leg (test.sh --perfbench), then failure_model.sh,
# observability.sh, analyze.sh and run_clang_tidy.sh (which skips
# itself when clang-tidy is not installed). A <tsan-build-dir>,
# configured with -DCMPSIM_SANITIZE=thread and built, adds tsan.sh.
# Each job runs even when an earlier one failed, and a summary names
# every job's result. Exits non-zero when any job failed.
set -o pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1" ] ||
   { [ $# -eq 2 ] && [ ! -d "$2" ]; }; then
    echo "usage: $0 <build-dir> [<tsan-build-dir>]" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$1" && pwd)
cd "$here/../.."

summary=()
status=0
job() {
    local name=$1
    shift
    echo "=== $name"
    if "$@"; then
        summary+=("ok      $name")
    else
        summary+=("FAILED  $name")
        status=1
    fi
}

job test "$here/test.sh" "$build" --perfbench
job failure-model "$here/failure_model.sh" "$build"
job observability "$here/observability.sh" "$build"
job analyze "$here/analyze.sh" "$build"
job clang-tidy tools/run_clang_tidy.sh "$build"
if [ $# -eq 2 ]; then
    job tsan "$here/tsan.sh" "$(cd "$2" && pwd)"
fi

echo "=== all.sh summary"
printf '%s\n' "${summary[@]}"
exit $status
