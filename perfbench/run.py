#!/usr/bin/env python3
"""Build and run arrayflow's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vet-serve --seed 1 --seconds 12 --trace 0

The script builds the Go benchmark in _go/ (a module of its own that uses
the checkout's module through a replace directive) into
.bench_build/perfbench/, with every Go cache, config and temporary
directory inside .bench_build, then runs it in a fresh process from the
checkout root. The benchmark prints its result as one JSON object on the
last line of stdout. The exit status is the benchmark's, or non-zero when
the build fails or the run outlives --seconds plus SETUP_ALLOWANCE_S.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vet-serve", "batch-cold", "analyze-restart")
BUILD_TIMEOUT_S = 840  # a cold build compiles the whole module
SETUP_ALLOWANCE_S = 150  # set-up and shut-down on top of --seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = os.path.join(ROOT, ".bench_build", "perfbench")
    tmp_dir = os.path.join(out, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(
        os.environ,
        TMPDIR=tmp_dir,
        GOTMPDIR=tmp_dir,
        GOCACHE=os.path.join(out, "go-cache"),
        GOPATH=os.path.join(out, "go-path"),
        GOMODCACHE=os.path.join(out, "go-path", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    try:
        build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=os.path.join(HERE, "_go"), env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.replace(tmp, binary)

    # A SIGTERM to this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", repr(args.seconds), "--trace", str(args.trace),
                             "--root", ROOT, "--launched", str(time.time_ns())], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=args.seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
