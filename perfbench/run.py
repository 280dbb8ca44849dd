#!/usr/bin/env python3
"""Build and run the cmpsim performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload zeus_full --seed 1 --seconds 10 --trace 0

The first run configures and builds the simulator library and the
benchmark binary (Release) into .bench_build/perfbench; later runs only
check that the build is current. Build output goes to stderr, so the
binary's last line of standard output is the result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cmpsim_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure.
    The compiler's temporary files stay inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("cmpsim sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", BUILD, "--target", "cmpsim_perfbench", "-j", jobs])


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", "unknown")."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != os.path.realpath(ROOT):
            return "unknown", "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD"), "1" if dirty else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    sha, dirty = git_provenance()
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", dirty, "--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    if rc != 0:
        fail(f"benchmark exited with {rc}")


if __name__ == "__main__":
    main()
