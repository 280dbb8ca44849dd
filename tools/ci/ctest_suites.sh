#!/usr/bin/env bash
# Run the ctest suites a CI job names, and fail if any named suite
# matches no test:
#
#   tools/ci/ctest_suites.sh <build-dir> '<Suite>|<Suite>...' [ctest args]
#
# ctest exits 0 when a -R filter matches nothing, and --no-tests=error
# only catches a filter that matches nothing at all. So each
# alternative of the filter is counted on its own first: a renamed or
# deleted suite fails the job instead of silently dropping out of it.
# The extra arguments go to the ctest run (e.g. -j 4).
set -eo pipefail

if [ $# -lt 2 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir> '<Suite>|<Suite>...' [ctest args]" >&2
    exit 2
fi
build=$1
filter=$2
shift 2

IFS='|' read -ra suites <<< "$filter"
for suite in "${suites[@]}"; do
    n=$(ctest --test-dir "$build" -N -R "$suite" |
        awk '/^Total Tests:/ {print $3}')
    if [ -z "$suite" ] || [ "${n:-0}" -eq 0 ]; then
        echo "$0: suite '$suite' of '$filter' matches no test" \
             "in $build" >&2
        exit 1
    fi
done
ctest --test-dir "$build" --output-on-failure --no-tests=error \
  -R "$filter" "$@"
