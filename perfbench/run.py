#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig4_hallway --seed 1 --seconds 30 --trace 0

The binary is configured and compiled into .bench_build/perfbench under the
repository root on first use; later runs only re-check the build. Every
argument is passed to the binary unchanged, and its exit code is returned.
Build output goes to stderr, so the binary's last stdout line stays the
result object. A failed build exits 1 without printing a result.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure (once) and build the binary; return True on success."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler scratch files stay inside the build tree.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            if cmd[1] == "-S":
                # A half-written cache would skip configuration next time.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
