#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload join-mru --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs one workload for the given host
seconds, and passes its report through.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits
non-zero, without printing a result, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("join-mru", "paging-mix", "tenant-storm")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    # The benchmark drives the simulator's libraries, so it needs the
    # repository around it.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("%s not found next to perfbench/; run from a full checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    # no shared dune cache: the build writes only under the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, args.workload + ".spans")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        return fail("run exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("no result line")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
