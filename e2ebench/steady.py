#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, per
metric, the median, the quartiles and the quartile spread as a share of the
median -- the figure the benchmark's bounds are judged against.

Run from the root of a checkout:

    python3 e2ebench/steady.py --workload intro --seeds 1-10

--seconds defaults to run_seconds in BENCHMARK.json. With --trace 1 it
summarises the per-layer metrics instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {r.returncode}\n{r.stdout}")
    for line in lines[:-1]:
        if line.startswith("# latency") or line.startswith("# host") or line.startswith("# note"):
            print(f"  seed {seed} {line[2:]}", file=sys.stderr)
    return json.loads(lines[-1])


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    values, units, failed, incorrect = {}, {}, 0, 0
    for s in seeds(args.seeds):
        res = one_run(args.workload, s, args.seconds, args.trace)
        failed += res["failed"]
        incorrect += 0 if res["correct"] else 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {s}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()
                                        if m["value"] != 0), file=sys.stderr)
    print(f"{args.workload}: {len(seeds(args.seeds))} runs, {failed} failed ops, "
          f"{incorrect} incorrect runs")
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        if len(vs) < 2 or all(v == 0 for v in vs):
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
