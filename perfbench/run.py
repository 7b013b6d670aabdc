#!/usr/bin/env python3
"""Serving benchmark: builds zss_serve and perfbench, then runs one workload.

    python3 perfbench/run.py --workload stream_fp32 --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ and run files to .bench_work/, both under the
repository root. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). See perfbench/README.md.
"""
import argparse
import ctypes
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def die_with_parent():
    """Child preexec hook: perfbench is killed if run.py is."""
    try:
        ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    except (OSError, AttributeError):
        pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at %s: the benchmark builds the repository "
            "it sits in" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "zss_serve",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own test size")
    args = ap.parse_args()
    os.chdir(ROOT)
    if not build():
        return 2
    cmd = [os.path.join(BUILD, "perfbench"),
           "--serve=" + os.path.join(BUILD, "zss", "zss_serve"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=" + args.trace,
           "--size=" + args.size, "--commit=" + source_id()]
    try:
        return subprocess.run(cmd, timeout=170,
                              preexec_fn=die_with_parent).returncode
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 2


if __name__ == "__main__":
    sys.exit(main())
