#!/usr/bin/env python3
"""Host-cost benchmark for the nicbar simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench with CMake, runs the unit checks, then runs the
harness. The harness prints every metric with its unit and, as the last
line, one JSON object; its exit code is passed through (non-zero on any pin
mismatch). With --trace 1 the span log goes to
.bench_build/perfbench/spans/<workload>-seed<n>.json.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns its exit code; on
    timeout kills the whole group (compilers included) and returns 1."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    return run(cmd, timeout, sys.stderr) == 0


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                         300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], 800)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)  # the harness checks the name
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_quiet([os.path.join(BUILD, "perfbench_checks")], 60):
        print("perfbench: unit checks failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return run(cmd, HARNESS_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
