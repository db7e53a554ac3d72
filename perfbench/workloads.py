"""Inputs, timed tasks and correctness checks of the benchmark workloads.

Every workload is a closed loop with a single client: the tasks of a cycle
run one after another, each starting when the previous one has finished.
Only the calls into weyltasep are timed.  Each task's outputs are checked
right after its timed call, outside the timed interval, and a mismatch or an
exception counts as one failed operation; it never stops the run.

The machines this runs on share their cores with other jobs, and a core's
speed drops by up to 1.7x for stretches of seconds to minutes.  So every
task is timed between two runs of a fixed reference loop on the same CPU,
and its seconds are scaled to the speed at which that loop takes
REF_NOMINAL_S (see timed_call).
"""
from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from weyltasep import closedform, markov, models, tworow, verify, walk, weyl
from weyltasep.ratio import parse_ratio
from weyltasep.weyl import WeylKind

# Chains solved by `exact-chains`: (label, family or "tworow", n, n0).  Rank 5
# is left out: one D5 solve with the Fraction elimination ran for more than
# five minutes.  The two-row chains are taken at verify.PARAM_POINTS[0].
EXACT_CHAINS = {
    "full": (
        ("B4", "B", 4, None),
        ("Ccheck4", "Ccheck", 4, None),
        ("D4", "D", 4, None),
        ("tworow7-1", "tworow", 7, 1),
        ("tworow7-2", "tworow", 7, 2),
    ),
    "tiny": (
        ("B3", "B", 3, None),
        ("Ccheck3", "Ccheck", 3, None),
        ("D3", "D", 3, None),
        ("tworow6-1", "tworow", 6, 1),
        ("tworow6-2", "tworow", 6, 2),
    ),
}

# `walk`: the ensemble part calls estimate_direction as the CLI does (10
# trials, default process pool) for all five families at ranks 2-6; the single
# part runs one trajectory per kind in this process.  At 25k steps the cosine
# against the closed form stayed above 0.9998 over a dozen seeds per kind,
# far from the 0.999 gate, and a cycle is short enough for about ten cycles
# in a 40 s run.
WALK = {
    "full": {
        "ensemble": (("B", 3), ("Ccheck", 2), ("D", 3), ("B", 6), ("C", 4), ("Bcheck", 4)),
        "steps": 25_000,
        "trials": 10,
        "single": (("B", 2), ("D", 6)),
        "single_steps": 300_000,
    },
    "tiny": {
        "ensemble": (("B", 3), ("Ccheck", 2), ("D", 3)),
        "steps": 10_000,
        "trials": 10,
        "single": (("B", 2), ("D", 3)),
        "single_steps": 100_000,
    },
}
COSINE_GATE = 0.999

# `verify-suites` runs the suites in the fixed order of verify.SUITES, so the
# `tables` suite reuses the B4 law that `conjecture-b` cached, as it does for
# a user running them in turn.
VERIFY_TINY_KWARGS = {
    "identities": {"a_max": 4, "k_max": 4, "motzkin_k": 3},
    "tworow": {"bij_n_max": 4, "stationary_cases": ((3, 1),), "partition_n_max": 4},
    "lumping": {"n_max": 2},
    "conjecture-b": {"n": 3},
    "tables": {},
}


def walk_pool_size(size: str) -> int:
    """Processes estimate_direction starts when given no `processes`."""
    return min(WALK[size]["trials"], os.cpu_count() or 1)


def make_inputs(workload: str, size: str, seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    if workload == "exact-chains":
        params = verify.PARAM_POINTS[0]
        chains = []
        for label, family, n, n0 in EXACT_CHAINS[size]:
            kind = None if family == "tworow" else WeylKind(family, n)
            chains.append({"label": label, "kind": kind, "n": n, "n0": n0, "params": params})
        return {"chains": chains}
    if workload == "walk":
        spec = WALK[size]
        return {
            "ensemble": [(f"{f}{n}", WeylKind(f, n), n) for f, n in spec["ensemble"]],
            "single": [(f"{f}{n}", WeylKind(f, n), n) for f, n in spec["single"]],
            "steps": spec["steps"],
            "trials": spec["trials"],
            "single_steps": spec["single_steps"],
            "seeds": random.Random(seed),
            "processes": walk_pool_size(size),
        }
    if workload == "verify-suites":
        kwargs = VERIFY_TINY_KWARGS if size == "tiny" else {}
        return {"suites": [(name, kwargs.get(name, {})) for name in verify.SUITES]}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Cycle:
    """What one cycle did: timed seconds per task, work, counts and failures.

    `parts` maps a rate metric to (units of work, labels of the tasks that
    did it); the work is the same in every cycle of a run.
    """

    times: dict = field(default_factory=dict)  # scaled seconds per task
    raw: dict = field(default_factory=dict)  # measured seconds per task
    parts: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, task: str, reason: str) -> None:
        self.failures.append(f"{task}: {reason}")


def law_digest(law) -> str:
    """sha256 of the law as sorted 'repr(state) TAB p/q' lines."""
    lines = sorted(f"{s!r}\t{p.numerator}/{p.denominator}" for s, p in law.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@contextmanager
def on_cpu(cpu: int | None):
    """Run this process on one CPU inside the block, or anywhere if None."""
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# Seconds the reference loop takes at full speed on a 2-vCPU machine with
# Python 3.11; scaled times are seconds at that speed.
REF_NOMINAL_S = 0.005


def reference_loop():
    """Fixed pure-Python work with the workloads' mix of Fraction and int code."""
    acc = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * third
    total = 0
    table = list(range(8))
    for i in range(40_000):
        total += table[i & 7] * i
    return acc, total


def reference_seconds(cpus) -> float:
    """Best of three reference loops on each of `cpus` in turn, averaged."""
    times = []
    for cpu in cpus:
        with on_cpu(cpu):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                reference_loop()
                best = min(best, time.perf_counter() - t0)
        times.append(best)
    return sum(times) / len(times)


def timed_call(cycle, label: str, cpus, call):
    """Run call() and record its seconds, raw and scaled by the reference loop.

    A single-process call runs pinned to cpus[0]; a call that starts a
    process pool runs unpinned, with the reference averaged over `cpus`.
    """
    before = reference_seconds(cpus)
    with on_cpu(cpus[0] if len(cpus) == 1 else None):
        t0 = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - t0
    after = reference_seconds(cpus)
    cycle.raw[label] = seconds
    cycle.times[label] = seconds * REF_NOMINAL_S * 2 / (before + after)
    return out


def _in_span(tracer, span: str, label: str, fn, *args, **kwargs):
    with tracer.span(span, label):
        return fn(*args, **kwargs)


def run_cycle(workload: str, inputs: dict, tracer, refs: dict, inject: str | None,
              cpu: int | None, pool_cpus: list) -> Cycle:
    """One cycle; single-process tasks run on `cpu`, the walk pool on `pool_cpus`."""
    cycle = Cycle()
    with tracer.span("cycle", workload):
        if workload == "exact-chains":
            _exact_cycle(inputs, tracer, refs, inject, cycle, cpu)
        elif workload == "walk":
            _walk_cycle(inputs, tracer, inject, cycle, cpu, pool_cpus)
        else:
            _verify_cycle(inputs, tracer, cycle, cpu)
    return cycle


# ---------------------------------------------------------------------------
# exact-chains


def _build_and_solve(chain, tracer):
    label = chain["label"]
    if chain["kind"] is None:
        with tracer.span("tworow.kernel", label):
            kernel = tworow.kernel(chain["n"], chain["n0"], chain["params"])
    else:
        with tracer.span("models.build_multi", label):
            kernel = models.build_multi(chain["kind"], chain["n"])
    with tracer.span("markov.exact_stationary", label):
        return kernel, markov.exact_stationary(kernel)


def _exact_cycle(inputs, tracer, refs, inject, cycle: Cycle, cpu) -> None:
    states = nnz = max_bits = 0
    for idx, chain in enumerate(inputs["chains"]):
        label = chain["label"]
        cycle.attempted += 1
        try:
            with tracer.span("task", label):
                kernel, law = timed_call(cycle, label, [cpu],
                                         lambda: _build_and_solve(chain, tracer))
                states += len(kernel)
                nnz += sum(len(row) for row in kernel.rows)
                max_bits = max(
                    max_bits,
                    max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in law.values()),
                )
                expected = refs[label]
                if inject == "digest" and idx == 0:
                    expected = "0" * len(expected)
                if law_digest(law) != expected:
                    cycle.fail(label, "law digest differs from the reference")
                reason = _independent_route(chain, law, tracer)
                if reason:
                    cycle.fail(label, reason)
        except Exception as exc:  # one failed operation; the run goes on
            cycle.fail(label, f"{type(exc).__name__}: {exc}")
    cycle.parts["exact_states_per_s"] = (states, [c["label"] for c in inputs["chains"]])
    cycle.counts.update({"markov.states": states, "markov.nnz": nnz, "markov.max_bits": max_bits})


def _independent_route(chain, law, tracer) -> str | None:
    """Compare a law with an exact route that does not run the solver."""
    kind, n, label = chain["kind"], chain["n"], chain["label"]
    if kind is None:
        with tracer.span("tworow.stationary", label):
            product_form = tworow.stationary(n, chain["n0"], chain["params"])[0]
        return None if law == product_form else "law differs from tworow.stationary"
    with tracer.span("closedform.check", label):
        if kind.family == "B" and n == 4:
            cells: dict = {}
            for w, p in law.items():
                cells[(w[-2], w[-1])] = cells.get((w[-2], w[-1]), 0) + p
            for i, row in verify.TABLE_B_PAIRS_N4.items():
                for col, text in zip((-4, -3, -2, -1), row):
                    if cells.get((i, col), 0) != parse_ratio(text):
                        return f"final pair ({i}, {col}) differs from TABLE_B_PAIRS_N4"
            return None
        if kind.family == "Ccheck":
            for i in range(1, n + 1):
                last = sum((p for w, p in law.items() if w[-1] == i), 0)
                if last != closedform.ccheck_last_density(n, i):
                    return f"last-site density of species {i} differs from the closed form"
            return None
        psi = [0] * n
        for w, p in law.items():
            if p and weyl.theta_raises(w, kind):
                for j, c in enumerate(weyl.inverse_act_theta(w, kind)):
                    psi[j] += p * c
        closed = closedform.limdir_closed(kind, n)
        if not closedform.DirectionVector(tuple(psi)).proportional_to(closed):
            return "highest-root direction is not proportional to limdir_closed"
        return None


# ---------------------------------------------------------------------------
# walk


def _walk_cycle(inputs, tracer, inject, cycle: Cycle, cpu, pool_cpus) -> None:
    steps, trials = inputs["steps"], inputs["trials"]
    seeds = inputs["seeds"]
    ens_props = single_props = accepted = 0
    for label, kind, n in inputs["ensemble"]:
        seed = seeds.randrange(2**31)
        cycle.attempted += 1
        try:
            est = timed_call(cycle, label, pool_cpus, lambda: _in_span(
                tracer, "walk.estimate_direction", label,
                walk.estimate_direction, kind, n, steps, trials, seed))
            ens_props += steps * trials
            accepted += round(est.acceptance_rate * steps * trials)
            if not est.cosine_vs_closed_form >= COSINE_GATE:
                cycle.fail(label, f"cosine {est.cosine_vs_closed_form} < {COSINE_GATE} (seed {seed})")
        except Exception as exc:  # one failed operation; the run goes on
            cycle.fail(label, f"{type(exc).__name__}: {exc}")
    single_steps = inputs["single_steps"]
    for idx, (label, kind, n) in enumerate(inputs["single"]):
        seed = seeds.randrange(2**31)
        cycle.attempted += 1
        try:
            summary = timed_call(cycle, label, [cpu], lambda: _in_span(
                tracer, "walk.run_walk", label, walk.run_walk, kind, n, single_steps, seed))
            single_props += single_steps
            accepted += summary.accepted
            got = summary.accepted + (1 if inject == "crossings" and idx == 0 else 0)
            if got != summary.crossings:
                cycle.fail(label, f"accepted {got} != crossings {summary.crossings} (seed {seed})")
        except Exception as exc:  # one failed operation; the run goes on
            cycle.fail(label, f"{type(exc).__name__}: {exc}")
    ensemble = [label for label, _, _ in inputs["ensemble"]]
    single = [label for label, _, _ in inputs["single"]]
    cycle.parts["walk_steps_per_s"] = (steps * trials * len(ensemble), ensemble)
    cycle.parts["walk_single_steps_per_s"] = (single_steps * len(single), single)
    proposals = ens_props + single_props
    cycle.counts.update(
        {
            "walk.proposals": proposals,
            "walk.accept_rate": accepted / proposals if proposals else 0.0,
            "walk.processes": inputs["processes"],
        }
    )


# ---------------------------------------------------------------------------
# verify-suites


def _verify_cycle(inputs, tracer, cycle: Cycle, cpu) -> None:
    checks = checks_failed = 0
    for name, kwargs in inputs["suites"]:
        cycle.attempted += 1
        try:
            report = timed_call(cycle, name, [cpu], lambda: _in_span(
                tracer, f"verify.{name}", name, verify.run_suite, name, **kwargs))
            bad = [c["name"] for c in report["checks"] if not c["pass"]]
            checks += len(report["checks"])
            checks_failed += len(bad)
            if bad or not report["pass"] or not report["checks"]:
                cycle.fail(name, f"failed checks {bad}")
        except Exception as exc:  # one failed operation; the run goes on
            cycle.fail(name, f"{type(exc).__name__}: {exc}")
    cycle.counts.update({"verify.checks": checks, "verify.checks_failed": checks_failed})
