#!/usr/bin/env bash
# Thin wrapper over cmpsim_analyze, the repo-specific static analyzer
# (tools/analyze/, DESIGN.md §11). The analyzer replaced this script's
# old grep/awk heuristics with token-level checkers: banned
# nondeterminism sources, unordered-container iteration, TagEntry*
# held across DecoupledSet reordering, env-knob registry drift, and
# mutable shared state in the kernel directories. Findings are suppressed in-source with
# "// analyze-ok: <check-id> <reason>".
#
# Arguments go to the analyzer (e.g. --json). It always scans the
# whole tree, so it takes no paths: one exits 2 with its usage.
#
# Exit status: 0 clean, 1 findings, 2 build/usage failure — the same
# contract CI has always keyed on.
set -u
cd "$(dirname "$0")/.."

ANALYZE=""
for candidate in build/tools/analyze/cmpsim_analyze \
                 build-*/tools/analyze/cmpsim_analyze; do
    if [ -x "${candidate}" ]; then
        ANALYZE="${candidate}"
        break
    fi
done

if [ -z "${ANALYZE}" ]; then
    echo "lint: building cmpsim_analyze..." >&2
    cmake -B build -S . >/dev/null || exit 2
    cmake --build build --target cmpsim_analyze >/dev/null || exit 2
    ANALYZE=build/tools/analyze/cmpsim_analyze
fi

exec "${ANALYZE}" --root . "$@"
