"""Self-test of the benchmark: tiny runs of every workload and its failure gates.

From the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- a tiny run of each workload, untraced and traced, prints every metric
  named in BENCHMARK.json with its unit, and fails no operation;
- every run empties the lru_caches the package is known to keep;
- a corrupted reference digest and a forced accepted != crossings are each
  counted as failed operations, and the run still ends normally;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits with a nonzero code and prints no result.
Scratch files go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-chains", "walk", "verify-suites")
KNOWN_CACHES = {
    "closedform.stationary_multi", "closedform._bcheck_marginals", "tworow.count_segment",
    "walk._walk_tables", "walk.fundamental_point", "weyl.root_data", "weyl.kac_weights",
    "models.theta_move_patterns", "models.first_move_patterns_d", "weyl._positive_root_set",
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3", "--seconds", "1",
           "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise AssertionError(f"attempted {result['attempted']!r}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace {trace}"
            result = result_of(bench(["--workload", workload, "--trace", str(trace)]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics/units {got} != BENCHMARK.json {declared[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if trace == 0 and any(v["value"] == 0 for v in result["metrics"].values()):
                problems.append(f"{tag}: an end-to-end metric is 0")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed operations")
            record_path = os.path.join(ROOT, ".bench_out", f"result-{workload}-seed3-trace{trace}.json")
            with open(record_path) as fh:
                missing = KNOWN_CACHES - set(json.load(fh)["caches_cleared"])
            if missing:
                problems.append(f"{tag}: caches not found and cleared: {sorted(missing)}")
            print(f"ok   {tag}: {result['attempted']} operations", flush=True)

    for workload, inject in (("exact-chains", "digest"), ("walk", "crossings")):
        result = result_of(bench(["--workload", workload, "--inject", inject]))
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload} with --inject {inject}: the gate did not trip")
        print(f"ok   {workload} --inject {inject}: {result['failed']} failed", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(spec["command"] + ["--workload", "walk", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}")
    print(f"ok   bare directory: exit {done.returncode}", flush=True)
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
