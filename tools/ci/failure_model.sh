#!/usr/bin/env bash
# The failure model end to end (DESIGN.md section 8), as CI's
# failure-model job runs it:
#
#   tools/ci/failure_model.sh <build-dir>
#
# <build-dir> is a configured and built Release tree. Five steps: the
# resilience test suites; CLI error smoke tests (each failure must
# exit 2 with one structured "[kind]" line); bench knob errors; the
# journal-resume determinism gate (a batch resumed from a journal must
# fingerprint identically to a clean run); and a bench SIGKILLed
# mid-batch and resumed from its journal. Scratch files go to a
# temporary directory. Stops at the first failed check, non-zero.
set -eo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
build=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== Resilience test suites"
ctest --test-dir "$build" --output-on-failure -j 4 \
  -R 'SimError|ConfigValidate|FaultContainment|Watchdog|SummaryBytes|PointSpecBytes|JournalResume|ThreadPool'

echo "== CLI error smoke tests"
(
  set -x
  cli=$build/tools/cmpsim
  args="--workload zeus --warmup 20000 --measure 5000"
  # Each failure mode must exit 2 with one
  # "cmpsim: error: [kind] ..." line on stderr.
  check() {
    local kind=$1; shift
    if "$@" 2> err.txt; then
      echo "expected failure, got success"; exit 1
    else
      status=$?
    fi
    test "$status" -eq 2
    head -1 err.txt | grep -q "cmpsim: error: \[$kind\]"
  }
  # One structured line for deterministic errors...
  check usage $cli --no-such-flag
  test "$(wc -l < err.txt)" -eq 1
  check workload $cli --workload no-such-benchmark
  test "$(wc -l < err.txt)" -eq 1
  check config env CMPSIM_WATCHDOG=abc $cli $args
  test "$(wc -l < err.txt)" -eq 1
  check config env CMPSIM_CPISTACK=off $cli $args
  test "$(wc -l < err.txt)" -eq 1
  # Integers are plain digits that fit: no wrapped minus, no
  # truncation to a narrower field.
  check config env CMPSIM_WARMUP=-1 $cli $args
  test "$(wc -l < err.txt)" -eq 1
  check usage $cli --cores 4294967304
  test "$(wc -l < err.txt)" -eq 1
  # A pin rate so slow that one message outlasts a cycle count.
  check config $cli $args --bandwidth 1e-18
  test "$(wc -l < err.txt)" -eq 1
  # Infinite bandwidth still serializes at the pin rate.
  check config $cli $args --infinite-bw --bandwidth 0
  test "$(wc -l < err.txt)" -eq 1
  # ...and the livelock watchdog, whose error carries a multi-line
  # run diagnostic: no core retires across a memory access longer
  # than the bound.
  check watchdog env CMPSIM_WATCHDOG=100 $cli $args
  grep -q 'no instruction retired' err.txt
  # And the clean run still works.
  $cli $args
  # An empty measured window prints 0 rates, never nan.
  $cli $args --measure 0 > measure0.txt
  if grep -i nan measure0.txt; then exit 1; fi
  # A flag not given takes its knob's value; a flag beats it.
  n=$(env CMPSIM_MEASURE=1000 $cli --workload zeus --warmup 20000 |
    awk '/^instructions/ {print $2}')
  test "$n" -lt 9000
  env CMPSIM_SCALE=8 $cli $args | grep -q 'scale 8'
  env CMPSIM_SCALE=8 $cli $args --scale 4 | grep -q 'scale 4'
  # The banner's L2 size is the derived geometry, which clamps
  # at 16 sets: 8 KB uncompressed, 4 KB compressed.
  $cli $args --scale 8192 | grep -q '(L2 8 KB)'
  $cli $args --scale 8192 --compression | grep -q '(L2 4 KB)'
)

echo "== Bench knob errors"
(
  set -x
  # A malformed knob or an impossible scale must stop a bench
  # before it simulates anything: exit 2 with exactly one
  # "<bench>: error: [config] ..." line on stderr.
  check() {
    local bench=$1; shift
    if env "$@" "$build/bench/$bench" > /dev/null 2> err.txt; then
      echo "expected failure, got success"; exit 1
    else
      status=$?
    fi
    test "$status" -eq 2
    test "$(wc -l < err.txt)" -eq 1
    grep -q "^$bench: error: \[config\]" err.txt
  }
  for bench in figures table5_sampled ablation_cpi_stack; do
    check $bench CMPSIM_SCALE=0
    check $bench CMPSIM_SCALE=3
    check $bench CMPSIM_WARMUP=-1
  done
  check figures CMPSIM_SEEDS=0
)

echo "== Journal-resume determinism gate"
(
  set -x
  # Run the determinism gate journaled, then again resuming
  # from the journal: restored points must be byte-identical,
  # so the second pass must also pass its fingerprint check.
  CMPSIM_JOURNAL=journal.txt "$build/tools/determinism_check"
  test -s journal.txt
  head -1 journal.txt | grep -q 'cmpsim-journal v2'
  CMPSIM_JOURNAL=journal.txt "$build/tools/determinism_check"
)

echo "== Kill-and-resume journaled bench"
(
  set -x
  # The point journal is the one resume mechanism (DESIGN.md
  # section 8): the figures driver SIGKILLed mid-batch and rerun from
  # its journal must print exactly what an uninterrupted run
  # prints. Short runs keep its 346-point matrix cheap.
  bench=$build/bench/figures
  export CMPSIM_WARMUP=20000 CMPSIM_MEASURE=5000
  $bench > clean.txt
  rm -f figures.journal
  env CMPSIM_JOURNAL=figures.journal CMPSIM_JOBS=1 $bench \
    > /dev/null & pid=$!
  # Kill as soon as the journal holds one completed point.
  for i in $(seq 1 1200); do
    grep -q '^point ' figures.journal 2> /dev/null && break
    sleep 0.025
  done
  kill -9 $pid || true
  wait $pid || true
  before=$(grep -c '^point ' figures.journal)
  test "$before" -ge 1
  env CMPSIM_JOURNAL=figures.journal $bench > resumed.txt
  cmp clean.txt resumed.txt
  test "$(grep -c '^point ' figures.journal)" -gt "$before"
)

echo "failure model: all checks passed"
