#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, for each metric, the
median over the runs and the interquartile range as a share of it.

    python3 perfbench/spread.py --workload sim_mixed --seeds 1-10 \
        [--seconds 20] [--trace 0] [--bench <binary>]

Each run is `<bench> --workload W --seed S --seconds N --trace T`;
by default the benchmark is run through cargo from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bench", default=None)
    a = ap.parse_args()
    cmd = (
        [a.bench]
        if a.bench
        else ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]
    )
    values = {}
    for s in seeds(a.seeds):
        out = subprocess.run(
            cmd + ["--workload", a.workload, "--seed", str(s), "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True,
            text=True,
        )
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':32} {'median':>14} {'iqr/median':>10}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:32} {med:14.6g} {spread:10.4f}")


if __name__ == "__main__":
    main()
