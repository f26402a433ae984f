#!/usr/bin/env python3
"""End-to-end benchmark of sixdust.

Run from the root of a sixdust checkout:

    python3 sixbench/run.py --workload batch|timeline|serve --seed N \
        --seconds S --trace 0|1

Builds the program with the repository's own CMake (RelWithDebInfo) and
this benchmark's package under .bench_build/, then replaces itself with the
benchmark binary, which prints one JSON result line last on stdout.
Build output goes to stderr. See README.md.

    python3 sixbench/run.py --selftest

builds and runs the tests of the benchmark's own checks instead.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("batch", "timeline", "serve")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"sixbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, cwd=None):
    """Run a build step with its output on stderr; fail on a nonzero exit."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, targets):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no sixdust source tree at {root}")
    out = os.path.join(root, ".bench_build")
    program = os.path.join(out, "sixdust")
    bench = os.path.join(out, "sixbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(program, "CMakeCache.txt")):
        run(["cmake", "-S", root, "-B", program,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run(["cmake", "--build", program, "--target", "tool_sixdust_serve",
         "-j", jobs])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        run(["cmake", "-S", bench_dir, "-B", bench,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             f"-DSIXDUST_SOURCE_DIR={root}", f"-DSIXDUST_BUILD_DIR={program}"])
    run(["cmake", "--build", bench, "--target", *targets, "-j", jobs])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()

    if args.selftest:
        out = build(root, ["sixbench_tests"])
        run(["ctest", "--test-dir", os.path.join(out, "sixbench"),
             "--output-on-failure"])
        return
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build(root, ["sixbench", "sixbench_setup"])
    workdir = os.path.join(out, "run", args.workload)
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    binary = os.path.join(out, "sixbench", "sixbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--serve-bin", os.path.join(out, "sixdust", "tools", "sixdust-serve"),
            "--setup-bin", os.path.join(out, "sixbench", "sixbench_setup")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
