#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; the deployment's files live in a
scratch directory inside it and are removed when the run ends. The last
line of standard output is the result object; build output goes to
standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_mix_uncached", "hot_read_cached", "write_heavy_durable",
             "drift_retune")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def git_commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's self-tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    # A SIGTERM from whoever runs us must not orphan a build or benchmark
    # process: turn it into an exception, so children are stopped and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out = build_dir()
    try:
        if args.selftest:
            return subprocess.run([build(out, "perfbench_selftest")]).returncode
        binary = build(out, "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    scratch = os.path.join(out, f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch, "--out-dir", os.path.join(out, "spans"),
           "--commit", git_commit()]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
