#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartile of the per-seed
values (statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload build-s2 --seeds 1-10

A metric is steady when its spread is below a third of its bound.
Exits non-zero if a run fails or reports correct=false.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if result.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {result.returncode}")
        final = json.loads(result.stdout.strip().split("\n")[-1])
        if not final["correct"]:
            sys.exit(f"seed {seed}: correct=false ({final['failed']} of {final['attempted']} failed)")
        row = {name: final["metrics"][name]["value"] for name in values}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): "
              + "  ".join(f"{n}={v:.6g}" for n, v in row.items()), flush=True)

    print(f"\n{args.workload}: {len(values['setup_s'])} seeds, {seconds:g} s per run")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        if len(series) < 2:
            continue
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid
        steady = spread < metric["bound"] / 3
        print(f"  {metric['name']:12s} median {mid:<12.6g} spread {spread:6.3f}  "
              f"bound {metric['bound']:.2f}  {'ok' if steady else 'NOT STEADY'}")


if __name__ == "__main__":
    main()
