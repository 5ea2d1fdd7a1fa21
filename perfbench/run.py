#!/usr/bin/env python3
"""Builds and runs the figdb benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Each run configures and builds the
benchmark, and the library straight from src/, into .bench_build/; after the
first run that only re-checks the build. The benchmark's last line of stdout is
one JSON object with the run's correctness, operation counts and metrics.
Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("object_query", "served_readers", "ingest_publish", "decayed_query")
# A run must finish within 180 s; the build has its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run_group(cmd, cwd, timeout):
    """Runs cmd in its own process group and returns (exit code, stdout).

    On timeout the whole group (make and its compilers, too) is killed and
    reaped before this raises, so no process of the run outlives it.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {' '.join(cmd)} exceeded {timeout} s")
    return proc.returncode, out


def run_quietly(cmd, cwd, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    code, out = run_group(cmd, cwd, timeout)
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def build(root, build_dir):
    # Configuring every time costs about a second and never leaves a run
    # on the cache of an earlier, failed configure.
    run_quietly(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], root, BUILD_TIMEOUT_S)
    run_quietly(["cmake", "--build", build_dir, "--target", "figdb_perfbench",
                 "-j", str(os.cpu_count() or 1)], root, BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "figdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    # On-disk stores of this run live under the build directory and are
    # removed when it ends.
    scratch = os.path.join(build_dir, "stores", f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        code, out = run_group(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--dir", scratch],
            root, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        raise SystemExit(f"perfbench: benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(out)
        raise SystemExit("perfbench: benchmark printed no result")
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(out)
        raise SystemExit("perfbench: benchmark printed no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
