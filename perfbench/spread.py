"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --workload walk --seeds 1-10 --seconds 20 [--out FILE]

For each metric it prints the median of the runs, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between the
quartiles as a share of the median.  Runs are made one after another.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, run_py, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:40s} median {s['median']:.6g} {s['unit']:6s} spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
