"""Run workloads over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 [--workloads hq_ply,large_scene]
                            [--trace 0] [--label name]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints per metric the median and the quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.  Every result line,
with the run's ``bench:`` notes from standard error (the gauge and the wall
times before scaling), is kept in ``bench/out/spread-<label>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default="hq_ply,fast_random,large_scene")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--label", default="latest")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            notes = [line for line in proc.stderr.splitlines() if line.startswith("bench:")]
            runs[workload].append({"seed": seed, **result, "notes": notes})
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  flush=True)
        rows = runs[workload]
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {name:28s} median {med:12.4f}  spread {spread:7.2%}")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"spread-{args.label}.json"), "w") as f:
        json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
