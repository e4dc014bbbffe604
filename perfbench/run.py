#!/usr/bin/env python3
"""Builds chunkbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload bulk|msg|sim_lossy --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/ at
the checkout root); the first run configures and compiles, later runs
only check that the build is current. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's: non-zero when the build fails, the sources are missing,
or any op fails verification.
"""
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run(cmd, timeout=None, **kw):
    """Runs cmd to completion; a timeout kills it and waits for it."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            return proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: chunknet sources (src/) not found", file=sys.stderr)
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", out,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", out, "--target", "chunkbench",
                "-j", jobs], stdout=sys.stderr) == 0


def main():
    # A SIGTERM becomes SystemExit, so run() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir(), "chunkbench")
    sys.stdout.flush()
    try:
        return run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
