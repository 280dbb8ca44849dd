#!/usr/bin/env bash
# The telemetry layer end to end (DESIGN.md section 9), as CI's
# observability job runs it:
#
#   tools/ci/observability.sh <build-dir> [<artifact-dir>]
#
# <build-dir> is a configured and built Release tree. Six steps: the
# observability test suites (each named suite must match a test); a
# traced + reported CLI run whose JSON artifacts must parse (python3
# -m json.tool is the arbiter); the determinism gate traced and
# profiled, and again with the CPI stack armed, printing exactly what
# it prints unarmed (tracing, profiling and attribution only read
# simulator state); a CLI flag beating its environment knob; and a
# CPI-stack bench point's trace and report.
# The JSON artifacts are left in <artifact-dir> when one is given,
# else in a temporary directory removed on exit. Stops at the first
# failed check, non-zero.
set -eo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir> [<artifact-dir>]" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$1" && pwd)
if [ $# -eq 2 ]; then
    mkdir -p "$2"
    work=$(cd "$2" && pwd)
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
cd "$work"

echo "== Observability test suites"
"$here/ctest_suites.sh" "$build" \
  'EventTrace|RunReport|Profiler|Histogram|StatRegistry|CpiStack' -j 4

echo "== Traced + reported CLI smoke run"
(
  set -x
  env CMPSIM_PROF=1 "$build/tools/cmpsim" --workload zeus \
    --compression --prefetch --adaptive \
    --warmup 50000 --measure 20000 \
    --report run_report.json --trace trace.json
  # Both JSON artifacts must parse, the trace must contain
  # simulator events, and the report must record the knobs
  # the run was made under.
  python3 -m json.tool trace.json > /dev/null
  python3 -m json.tool run_report.json > /dev/null
  grep -q 'l2.fill' trace.json
  grep -q '"schema": "cmpsim.run_report.v1"' run_report.json
  grep -q '"eq.dispatch"' run_report.json
  grep -q '"CMPSIM_PROF": "1"' run_report.json
)

echo "== Traced determinism gate"
(
  set -x
  # Same hashes with every observability feature armed; with
  # CMPSIM_PROF=1 the gate also fails unless the profiler
  # timed the event kernel.
  env CMPSIM_TRACE=det_trace.json CMPSIM_PROF=1 \
    "$build/tools/determinism_check"
  python3 -m json.tool det_trace.json > /dev/null
)

echo "== Armed CPI-stack determinism gate"
(
  set -x
  # The attribution layer is pure observation: determinism
  # output (every main stat hash, all legs) must be
  # byte-identical with CMPSIM_CPISTACK armed and unarmed.
  "$build/tools/determinism_check" | tee det_unarmed.txt
  env CMPSIM_CPISTACK=1 "$build/tools/determinism_check" \
    | tee det_armed.txt
  diff det_unarmed.txt det_armed.txt
)

echo "== CLI flag beats its environment knob"
(
  set -x
  env CMPSIM_CPISTACK=0 "$build/tools/cmpsim" --workload zeus \
    --warmup 20000 --measure 5000 --cpi-stack > cpi_flag.txt
  grep -q 'CPI stack' cpi_flag.txt
)

echo "== CPI-stack bench-point trace artifact"
(
  set -x
  # One Table 5 point (mgrid, compression + prefetching) with
  # the attribution layer armed: miss-genealogy spans in the
  # Chrome trace and a cpi_stack section in the run report.
  "$build/tools/cmpsim" --workload mgrid --compression \
    --prefetch --warmup 50000 --measure 20000 --cpi-stack \
    --trace cpi_trace.json --report cpi_report.json
  python3 -m json.tool cpi_trace.json > /dev/null
  python3 -m json.tool cpi_report.json > /dev/null
  grep -q 'mem.journey' cpi_trace.json
  grep -q 'thread_name' cpi_trace.json
  grep -q '"cpi_stack"' cpi_report.json
  grep -q 'genealogy.completed' cpi_report.json
)

echo "observability: all checks passed"
