#!/usr/bin/env python3
"""Build looppartd and the perfbench driver from source, then run one
benchmark workload.

Run from the root of a looppart checkout:

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

Everything the run builds or writes goes under .bench_build/ in the
checkout (the Go build cache included). The last line of standard output is
the driver's JSON result. Exits non-zero, without a result, when the
checkout lacks the sources to build from.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# Hard wall-clock limit for one run, set-up and builds included.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env, cwd, out, pkg):
    try:
        subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env, check=True,
                       stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        fail("the go toolchain is not on PATH")
    except subprocess.SubprocessError as e:
        fail("build of %s failed: %s" % (pkg, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", os.path.join("cmd", "looppartd"), os.path.join("perfbench", "go.mod"),
                 os.path.join("perfbench", "testdata", "reference.txt")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a looppart checkout: %s is missing" % need)

    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every file the go command writes (build cache, module cache,
    # temporary files, telemetry counters) inside the checkout.
    env = dict(os.environ, GOCACHE=os.path.join(out, "gocache"), GOTMPDIR=tmp,
               GOPATH=os.path.join(out, "gopath"), XDG_CONFIG_HOME=os.path.join(out, "config"),
               GOTELEMETRY="off", GOTOOLCHAIN="local", GOFLAGS="-buildvcs=false", TMPDIR=tmp)
    env.pop("GOWORK", None)

    daemon = os.path.join(out, "looppartd")
    bench = os.path.join(out, "perfbench")
    build(env, root, daemon, "./cmd/looppartd")
    build(env, os.path.join(root, "perfbench"), bench, ".")

    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-daemon", daemon, "-workdir", os.path.join(out, "run"),
           "-reference", os.path.join(root, "perfbench", "testdata", "reference.txt")]
    # Own session, so that any daemon the driver leaves behind after a
    # crash is found and stopped with it.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; stopped" % RUN_LIMIT_S, file=sys.stderr)
        code = 1
    finally:
        stop_group(proc)
    sys.exit(code)


def stop_group(proc):
    """Kill whatever is left of the driver's process group and wait until
    it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
