"""Benchmark of weyltasep: exact chains, alcove walks and the verify suites.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload exact-chains --seed 1 --seconds 40 --trace 0

The run repeats cycles of the workload's tasks until --seconds have passed.
Every cycle starts with every lru_cache of the package empty.  With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 cycles go in untraced and traced pairs,
and it holds every per-layer metric plus the tracing overhead (traced cycle time
over untraced cycle time).  Times are scaled by a reference loop run
around each timed call (workloads.timed_call) and summarized as medians
over cycles.  The run record and the spans go to .bench_out/ in the
checkout.
"""
from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PER_ROUND = 2
PROBES_PER_ROUND = {"exact-chains": 3, "walk": 1}

E2E = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
    "exact_states_per_s": "1/s",
    "walk_steps_per_s": "1/s",
    "walk_single_steps_per_s": "1/s",
}
# Where each rate is native.  Other workloads measure it on PROBES_PER_ROUND
# tiny cycles of that workload after each of their own cycles, outside
# wall_s, so that every run reports every end-to-end metric, never as 0.
RATE_SOURCE = {
    "exact_states_per_s": "exact-chains",
    "walk_steps_per_s": "walk",
    "walk_single_steps_per_s": "walk",
}

FULL_CHAINS = ("B4", "Ccheck4", "D4", "tworow7-1", "tworow7-2")
FULL_ENSEMBLE = ("B3", "Ccheck2", "D3", "B6", "C4", "Bcheck4")
FULL_SINGLE = ("B2", "D6")
SUITES = ("identities", "tworow", "lumping", "conjecture-b", "tables")

# (metric, unit, span or count it is read from)
PER_LAYER = (
    [("markov.exact_stationary_s", "s", "markov.exact_stationary")]
    + [(f"markov.exact_stationary_s.{c}", "s", f"markov.exact_stationary.{c}") for c in FULL_CHAINS]
    + [
        ("models.build_multi_s", "s", "models.build_multi"),
        ("tworow.kernel_s", "s", "tworow.kernel"),
        ("tworow.stationary_s", "s", "tworow.stationary"),
        ("closedform.check_s", "s", "closedform.check"),
        ("markov.states", "count", "markov.states"),
        ("markov.nnz", "count", "markov.nnz"),
        ("markov.max_bits", "count", "markov.max_bits"),
    ]
    + [(f"walk.estimate_direction_s.{k}", "s", f"walk.estimate_direction.{k}") for k in FULL_ENSEMBLE]
    + [(f"walk.run_walk_s.{k}", "s", f"walk.run_walk.{k}") for k in FULL_SINGLE]
    + [
        ("walk.accept_rate", "ratio", "walk.accept_rate"),
        ("walk.proposals", "count", "walk.proposals"),
        ("walk.processes", "count", "walk.processes"),
    ]
    + [(f"verify.{s}_s", "s", f"verify.{s}") for s in SUITES]
    + [
        ("verify.checks", "count", "verify.checks"),
        ("verify.checks_failed", "count", "verify.checks_failed"),
        ("trace.overhead", "ratio", None),
    ]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact-chains", "walk", "verify-suites"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs small instances, for the self-test")
    p.add_argument("--inject", choices=("digest", "crossings"), default=None,
                   help="corrupt one check on purpose, for the self-test")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import weyltasep from ./src of the checkout, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "weyltasep", "__init__.py")):
        sys.exit(f"perfbench: no src/weyltasep under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import weyltasep

    if os.path.dirname(os.path.dirname(os.path.abspath(weyltasep.__file__))) != SRC:
        sys.exit(f"perfbench: weyltasep was imported from {weyltasep.__file__}, not ./src")
    return weyltasep


def setup_child(args) -> None:
    """Time the import of weyltasep and the building of the inputs."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    workloads.make_inputs(args.workload, args.size, args.seed)
    print(repr(time.perf_counter() - t0))


def setup_sample(args, workloads, cpu) -> float:
    """Set-up seconds of one fresh process on `cpu`, scaled like a task."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]

    def child():
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        return float(out.stdout.strip().splitlines()[-1])

    sample = workloads.Cycle()
    seconds = workloads.timed_call(sample, "setup", [cpu], child)
    return seconds * sample.times["setup"] / sample.raw["setup"]


def package_caches() -> dict:
    caches = {}
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("weyltasep."):
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) == modname and hasattr(obj, "cache_info"):
                    caches[f"{modname[len('weyltasep.'):]}.{attr}"] = obj
    return caches


def clear_caches() -> list[str]:
    """Empty every lru_cache of the package and check that each is empty."""
    caches = package_caches()
    if not caches:
        raise RuntimeError("found no lru_cache in weyltasep")
    for fn in caches.values():
        fn.cache_clear()
    full = [name for name, fn in caches.items() if fn.cache_info().currsize]
    if full:
        raise RuntimeError(f"caches still hold entries after cache_clear: {full}")
    return sorted(caches)


def one_cycle(workloads, tracer, workload, inputs, refs, inject, traced, cpu, pool_cpus):
    clear_caches()
    gc.collect()
    tracer.enabled = traced
    span_id = len(tracer.spans)
    cycle = workloads.run_cycle(workload, inputs, tracer, refs, inject, cpu, pool_cpus)
    tracer.enabled = False
    return cycle, span_id


def run_rounds(args, workloads, tracer, refs):
    """Rounds until --seconds have passed, each with one cycle of the workload.

    Machines shared with other jobs run at a speed that changes over time,
    and not on every CPU at once.  So an untraced run spreads its set-up
    samples and probe cycles over the same rounds instead of measuring them
    in a block of their own, and consecutive cycles run their single-process
    tasks on each of two CPUs in turn.  With tracing, cycles go in pairs,
    untraced then traced, so that both kinds visit every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        cpus = [None]
    cpu_of = lambda k: cpus[k % len(cpus)]  # noqa: E731
    inputs = workloads.make_inputs(args.workload, args.size, args.seed)
    sources = [] if args.trace else sorted(set(RATE_SOURCE.values()) - {args.workload})
    probe_inputs = {s: workloads.make_inputs(s, "tiny", args.seed) for s in sources}
    cycles, probes, setup = [], {s: [] for s in sources}, []
    if not args.trace:
        setup_sample(args, workloads, None)  # warms the file cache, writes bytecode
    start = round_start = time.perf_counter()
    while True:
        k = len(cycles)
        traced = bool(args.trace) and (k // len(cpus)) % 2 == 1
        cycles.append((traced, *one_cycle(workloads, tracer, args.workload, inputs,
                                          refs[args.size], args.inject, traced, cpu_of(k), cpus)))
        if not args.trace:
            setup += [setup_sample(args, workloads, cpu_of(len(setup)))
                      for _ in range(SETUP_PER_ROUND)]
        for s in sources:
            for _ in range(PROBES_PER_ROUND[s]):
                probes[s].append(one_cycle(workloads, tracer, s, probe_inputs[s], refs["tiny"],
                                           args.inject, False, cpu_of(len(probes[s])), cpus)[0])
        now = time.perf_counter()
        # stop at the round end nearest to --seconds
        if (now - start + (now - round_start) / 2 >= args.seconds
                and len(cycles) >= len(cpus) * (1 + args.trace)):
            return cycles, probes, setup
        round_start = now


def task_medians(cycles) -> dict:
    """Median scaled seconds of each task over the cycles that completed it."""
    labels = {label for c in cycles for label in c.times}
    return {label: statistics.median(c.times[label] for c in cycles if label in c.times)
            for label in labels}


def rate(cycles, metric) -> float:
    """Units of work of one cycle over the summed task medians of that work."""
    units, labels = cycles[0].parts[metric]
    medians = task_medians(cycles)
    return units / sum(medians[label] for label in labels)


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, weyltasep, workloads, caches) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "rational_backend": weyltasep.ratio.R.__module__,
        "walk_pool_size": workloads.walk_pool_size(args.size),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "inject": args.inject,
        "caches_cleared": caches,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    weyltasep = import_package()
    import workloads
    from tracing import Tracer

    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)["law_sha256"]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer()
    cycles, probes, setup = run_rounds(args, workloads, tracer, refs)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    all_cycles = [c for _, c, _ in cycles] + [c for s in probes.values() for c in s]
    metrics: dict[str, float] = {}
    untraced = [c for t, c, _ in cycles if not t]
    if args.trace:
        traced = [(c, sid) for t, c, sid in cycles if t]
        totals = [tracer.cycle_totals(sid, {label: c.times[label] / c.raw[label] for label in c.raw})
                  for c, sid in traced]
        summary = {"s": statistics.median, "count": statistics.median_low,
                   "ratio": statistics.median}
        for name, unit, source in PER_LAYER:
            if source is None:
                continue
            if unit == "s":
                vals = [t.get(source, 0.0) for t in totals]
            else:
                vals = [c.counts.get(source, 0) for c, _ in traced]
            metrics[name] = summary[unit](vals)
        metrics["trace.overhead"] = (sum(task_medians([c for c, _ in traced]).values())
                                     / sum(task_medians(untraced).values()))
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["wall_s"] = sum(task_medians(untraced).values())
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mib"] = peak_kib / 1024
        probes[args.workload] = untraced
        for metric, source in RATE_SOURCE.items():
            metrics[metric] = rate(probes[source], metric)
        units = E2E

    attempted = sum(c.attempted for c in all_cycles)
    failures = [f for c in all_cycles for f in c.failures]
    if not args.trace:
        metrics["ok_frac"] = 1 - len(failures) / attempted
        metrics = {name: metrics[name] for name in E2E}
    caches = clear_caches()
    record = run_record(args, weyltasep, workloads, caches)
    record.update({
        "cycles": len(cycles),
        "cycle_task_s": [c.raw for _, c, _ in cycles],
        "cycle_task_scaled_s": [c.times for _, c, _ in cycles],
        "cycle_traced": [t for t, _, _ in cycles],
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {len(cycles)} cycles, attempted {attempted}, failed {len(failures)}, "
          f"failed_frac {len(failures) / attempted}, backend {record['rational_backend']}, "
          f"nproc {record['nproc']}, sha {record['git_sha']}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
