#!/usr/bin/env python3
"""Builds and runs fedra's end-to-end benchmark.

    python3 bench_e2e/run.py --workload testbed --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py --selftest

Run from the root of a fedra checkout. The first call configures and
builds bench_e2e/ (which compiles ../src) into .bench_build/bench_e2e;
later calls rebuild incrementally. Build output goes to stderr, so the
benchmark's one-line JSON summary stays the last line of stdout. Result
files land in .bench_out/. Exits non-zero, without a summary, when the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
OUT = os.path.join(ROOT, ".bench_out")


def build(target, env):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, env=env) == 0


def main(argv):
    selftest = argv == ["--selftest"]
    target = "bench_e2e_selftest" if selftest else "bench_e2e"
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(target, env):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, target)]
    if not selftest:
        cmd += argv + ["--out-dir", OUT]
    sys.stdout.flush()
    return subprocess.call(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
