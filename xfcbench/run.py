#!/usr/bin/env python3
"""Builds and runs the xfc benchmark.

    python3 xfcbench/run.py --workload snapshot|serve_warm|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark program and libxfc (Release) into .bench_build/; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Archives and span dumps are written to
.bench_build/work/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("snapshot", "serve_warm", "serve_mixed")


def checkout_env():
    """Environment keeping compiler and program temporaries in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(env):
    """Configures (once) and builds the benchmark program; returns its path."""
    sources = (os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "src"))
    if not os.path.isfile(sources[0]) or not os.path.isdir(sources[1]):
        raise RuntimeError("libxfc sources not found in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
            env=env,
        )
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "xfcbench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
        env=env,
    )
    return os.path.join(BUILD, "xfcbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        env = checkout_env()
        binary = build(env)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", os.path.join(BUILD, "work"),
        ],
        env=env,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
