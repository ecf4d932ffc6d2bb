#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload addr-sweep --seed 1 --seconds 10 --trace 0

All arguments go to perfbench/bench.exe (see perfbench/README.md). The
last line of standard output is the run's JSON result. The exit code is
the benchmark's, or non-zero without a result when the build fails or
the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RESULTS = os.path.join("perfbench", "results")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: neither dune nor opam is on PATH")


def run(cmd, timeout, env=None):
    """Run cmd to completion; kill it and wait if it outlives timeout."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} exceeded {timeout} s")


def main():
    build = dune_command() + ["build", "--root", ".", "--display", "quiet", EXE]
    code = run(build, BUILD_TIMEOUT_S)
    if code != 0 or not os.path.isfile(EXE):
        sys.exit(f"run.py: build failed (exit {code})")
    os.makedirs(RESULTS, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=RESULTS)
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env))


if __name__ == "__main__":
    main()
