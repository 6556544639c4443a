#!/usr/bin/env python3
"""Build the program from source and run one end-to-end benchmark run.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload intro|serve|edit|demand \
        --seed N --seconds S --trace 0|1

The last line of standard output is the run's JSON result (see
e2ebench/README.md). Build output goes to standard error. The first run in
a fresh checkout builds the repository; later runs only re-check the build.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("intro", "serve", "edit", "demand")
TARGETS = ("e2ebench/main.exe", "bin/introspect.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The child being waited for: the build, then the benchmark. Each runs in
# its own process group, so stopping it also stops what it spawned (the serve
# workload's server, intro's op processes).
current = None


def stop_current():
    if current is None or current.poll() is not None:
        return
    try:
        os.killpg(current.pid, signal.SIGTERM)
        current.wait(timeout=10)
    except (ProcessLookupError, subprocess.TimeoutExpired):
        try:
            os.killpg(current.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        current.wait()


def on_signal(*_):
    stop_current()
    sys.exit(130)


def call(cmd, env, timeout, stdout=None):
    """Run cmd to completion; its exit status, or 1 on a timeout."""
    global current
    current = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return current.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        stop_current()
        return 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def in_checkout():
    return (
        os.path.isfile("dune-project")
        and os.path.isdir("lib")
        and os.path.isdir("bin")
        and os.path.isfile("e2ebench/dune")
    )


def main(argv):
    args = parse_args(argv)
    if not in_checkout():
        print("e2ebench: run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    for s in (signal.SIGINT, signal.SIGTERM):
        signal.signal(s, on_signal)
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        rc = call(["dune", "build", "--root", ".", *TARGETS], env, BUILD_TIMEOUT_S,
                  stdout=sys.stderr)
        if rc != 0:
            return rc if rc > 0 else 1
        build = os.path.join("_build", "default")
        rc = call([os.path.join(build, "e2ebench", "main.exe"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--introspect", os.path.join(build, "bin", "introspect.exe")],
                  env, RUN_TIMEOUT_S)
    except OSError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
