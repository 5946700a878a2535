#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload multisource|text_ingest|serving_mix \
        --seed N --seconds S --trace 0|1 [--tiny]

The engine and the harness are compiled in Release mode into the directory
named by CARGO_TARGET_DIR (default: .bench_build) on first use. The last line
of standard output is the run's result: one JSON object with the keys
correct, attempted, failed and metrics. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; True on success."""
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the run's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the engine sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        # Only this checkout's own repository, not one enclosing it.
        if (top.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["multisource", "text_ingest", "serving_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny data sizes (smoke test of the benchmark)")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no engine sources under ./src; run from the root "
              "of a checkout", file=sys.stderr)
        return 1
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
