#!/bin/bash
# Runs every bench bench/CMakeLists.txt declares, teeing combined
# output to bench_output.txt.
#
#   ./run_benches.sh [-j N] [output.txt]
#
# -j N runs up to N bench binaries concurrently (default 1). Each
# binary writes to its own temp file; sections are concatenated in
# name order afterwards, so the combined output is identical at any
# -j. A machine-readable BENCH_results.json (bench name, wall-clock
# seconds, peak RSS, exit status, plus the commit, core count and
# every CMPSIM_* knob set for the run) lands next to the text output
# so later runs have a perf trajectory to compare against.
#
# The binaries themselves also parallelize internally across
# CMPSIM_JOBS simulation workers; with -j > 1 you may want to set
# CMPSIM_JOBS to a smaller value to avoid oversubscription.
cd "$(dirname "$0")" || exit 1

jobs=1
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N] [output.txt]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
case "$jobs" in
  ''|*[!0-9]*) echo "run_benches.sh: bad -j value: $jobs" >&2; exit 2 ;;
esac
[ "$jobs" -ge 1 ] || jobs=1

out=${1:-bench_output.txt}
json=$(dirname "$out")/BENCH_results.json
tmpdir=$(mktemp -d) || exit 1
trap 'rm -rf "$tmpdir"' EXIT
suite_t0=$(date +%s.%N)

# Exit status of a finished bench. A missing or corrupt .status file
# (the bench was OOM-killed or SIGKILLed before reporting) must read
# as a failure — defaulting it to 0 would let one dead bench vanish
# behind the later successes and report the suite "ok".
bench_status() {
  local s
  s=$(cat "$tmpdir/$1.status" 2>/dev/null)
  case "$s" in
    ''|*[!0-9]*) s=127 ;;
  esac
  echo "$s"
}

# Peak resident set of a finished bench in KiB. Missing or corrupt
# .rss (no /usr/bin/time on this host, or the bench was killed before
# time could report) reads as 0 — "unknown", never a parse error in
# the JSON.
bench_rss() {
  local r
  r=$(cat "$tmpdir/$1.rss" 2>/dev/null)
  case "$r" in
    ''|*[!0-9]*) r=0 ;;
  esac
  echo "$r"
}

# Launch one bench binary, recording output, wall seconds, peak RSS
# and status.
run_one() {
  local bin=$1 name
  name=$(basename "$bin")
  if [ ! -x "$bin" ]; then
    # Declared but not built: no .status, so it reads as 127.
    echo "run_benches.sh: $bin is not built" > "$tmpdir/$name.out"
    echo 0.00 > "$tmpdir/$name.secs"
    return
  fi
  local t0 t1
  t0=$(date +%s.%N)
  if [ -x /usr/bin/time ]; then
    # GNU time's %M is ru_maxrss in KiB; -o keeps it out of the
    # bench's own output so the concatenated text stays identical.
    /usr/bin/time -o "$tmpdir/$name.rss" -f %M \
      "$bin" > "$tmpdir/$name.out" 2>&1
  elif command -v python3 > /dev/null 2>&1; then
    # No GNU time on this host: read the same ru_maxrss (KiB on
    # Linux) from getrusage(RUSAGE_CHILDREN) in a python wrapper.
    # Signal deaths map to the shell's 128+N convention like time(1).
    python3 -c '
import resource, subprocess, sys
status = subprocess.call([sys.argv[1]])
with open(sys.argv[2], "w") as f:
    f.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(status if status >= 0 else 128 - status)' \
      "$bin" "$tmpdir/$name.rss" > "$tmpdir/$name.out" 2>&1
  else
    "$bin" > "$tmpdir/$name.out" 2>&1
  fi
  echo $? > "$tmpdir/$name.status"
  t1=$(date +%s.%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }' \
    > "$tmpdir/$name.secs"
}

# The declared benches, in C-locale name order. A build tree can
# still hold the binary of a bench since deleted; it is not run.
benches=()
while IFS= read -r name; do
  benches+=("build/bench/$name")
done < <(sed -nE 's/^cmpsim_(micro)?bench\(([A-Za-z0-9_]+)\)$/\2/p' \
           bench/CMakeLists.txt | LC_ALL=C sort)

running=0
for b in "${benches[@]}"; do
  if [ "$running" -ge "$jobs" ]; then
    wait -n
    running=$((running - 1))
  fi
  run_one "$b" &
  running=$((running + 1))
done
wait

# Concatenate sections in launch (name) order: byte-identical to a
# serial run apart from the timings in the JSON.
: > "$out"
overall=0
for b in "${benches[@]}"; do
  name=$(basename "$b")
  echo "##### $b #####" | tee -a "$out"
  tee -a "$out" < "$tmpdir/$name.out"
  echo | tee -a "$out"
  status=$(bench_status "$name")
  [ "$status" -eq 0 ] || overall=1
done

# Overall wall clock covers launch through concatenation — the number
# a CI budget actually cares about, not the sum of per-bench times
# (which double-counts under -j > 1).
suite_t1=$(date +%s.%N)
overall_secs=$(awk -v a="$suite_t0" -v b="$suite_t1" \
  'BEGIN { printf "%.2f", b - a }')

# Provenance: which tree produced these numbers, and on how many
# hardware cores. A perf trajectory without either is guesswork —
# "-dirty" marks a working tree with uncommitted changes.
git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$git_sha" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
  git_sha="$git_sha-dirty"
fi
host_nproc=$(nproc 2>/dev/null || echo 0)
case "$host_nproc" in
  ''|*[!0-9]*) host_nproc=0 ;;
esac

# Every CMPSIM_* variable in the environment, sorted by name, as JSON
# members with backslashes and quotes escaped. Wall-clock numbers and
# bench output are only comparable across runs with the same knobs
# (CMPSIM_JOBS, CMPSIM_MEASURE, CMPSIM_SAMPLING, ...).
knobs_json() {
  local sep="" name value
  while IFS= read -r name; do
    value=${!name}
    value=${value//\\/\\\\}
    value=${value//\"/\\\"}
    printf '%s"%s": "%s"' "$sep" "$name" "$value"
    sep=", "
  done < <(compgen -e | grep '^CMPSIM_' | LC_ALL=C sort)
}

{
  echo "{"
  echo "  \"git_sha\": \"$git_sha\","
  echo "  \"nproc\": $host_nproc,"
  echo "  \"jobs\": $jobs,"
  echo "  \"knobs\": {$(knobs_json)},"
  echo "  \"overall_wall_seconds\": $overall_secs,"
  if [ "$overall" -eq 0 ]; then
    echo "  \"status\": \"ok\","
  else
    echo "  \"status\": \"failed\","
  fi
  echo "  \"benches\": ["
  sep=""
  for b in "${benches[@]}"; do
    name=$(basename "$b")
    status=$(bench_status "$name")
    if [ "$status" -eq 0 ]; then word=ok; else word=failed; fi
    printf '%s    { "name": "%s", "status": "%s", "wall_seconds": %s, "max_rss_kb": %s, "exit_status": %s }' \
      "$sep" "$name" "$word" "$(cat "$tmpdir/$name.secs")" \
      "$(bench_rss "$name")" "$status"
    sep=",
"
  done
  echo
  echo "  ]"
  echo "}"
} > "$json"

if [ "$overall" -ne 0 ]; then
  echo "run_benches.sh: some benches failed (see $json)" | tee -a "$out" >&2
fi
echo "ALL_BENCHES_DONE" | tee -a "$out"
exit $overall
