"""Independent oracle computations used by the tests.

These deliberately avoid the library's own formulas: word lengths come from
breadth-first search over the generators, stationary vectors from floating
point power iteration or from state elimination over fractions.Fraction,
counts from brute enumeration.
"""
from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction

from weyltasep.weyl import WeylKind, apply_generator, identity_window, signed_permutations


def bfs_word_lengths(kind: WeylKind) -> dict:
    """Minimal generator-word length for every group element, by BFS.

    Uses only the finite generators 0..n-1 (not the highest-root one).
    """
    n = kind.n
    start = identity_window(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for g in range(n):
            v = apply_generator(w, g, kind)
            if v not in dist:
                dist[v] = dist[w] + 1
                queue.append(v)
    expected = 0
    for _ in signed_permutations(n, even_only=kind.family == "D"):
        expected += 1
    assert len(dist) == expected, "generators do not generate the whole group"
    return dist


def power_iteration(kernel, sweeps: int = 20000) -> dict:
    """Floating-point stationary vector by repeated multiplication."""
    m = len(kernel)
    vec = [1.0 / m] * m
    rows = [{j: float(p) for j, p in row.items()} for row in kernel.rows]
    for _ in range(sweeps):
        new = [0.0] * m
        for i, x in enumerate(vec):
            if x:
                for j, p in rows[i].items():
                    new[j] += x * p
        vec = new
    return {kernel.states[i]: vec[i] for i in range(m)}


def fraction_gth(kernel, members: list[int]) -> dict[int, Fraction]:
    """Stationary law on a closed class by state elimination over Fraction.

    The Grassmann-Taksar-Heyman scheme, with every update an addition of
    nonnegative rationals; meant for small chains only.
    """
    member_set = set(members)
    out = {
        i: {j: Fraction(p) for j, p in kernel.rows[i].items() if j != i and j in member_set}
        for i in members
    }
    inn: dict[int, set[int]] = {i: set() for i in members}
    for i, row in out.items():
        for j in row:
            inn[j].add(i)
    heap = [(len(inn[i]) * len(out[i]), i) for i in members]
    heapq.heapify(heap)
    active = set(members)
    order: list[tuple[int, dict[int, Fraction]]] = []
    while len(active) > 1:
        while True:
            cost, k = heapq.heappop(heap)
            if k in active:
                cur = len(inn[k]) * len(out[k])
                if cur <= cost:
                    break
                heapq.heappush(heap, (cur, k))
        denom = sum(out[k].values(), Fraction(0))
        cols_k: dict[int, Fraction] = {}
        preds = [i for i in inn[k] if i in active]
        succs = list(out[k].items())
        for i in preds:
            f = out[i].pop(k) / denom
            cols_k[i] = f
            row_i = out[i]
            for j, pkj in succs:
                if j == i:
                    continue
                row_i[j] = row_i.get(j, Fraction(0)) + f * pkj
                inn[j].add(i)
        for j, _ in succs:
            inn[j].discard(k)
        active.remove(k)
        out[k] = {}
        inn[k] = set()
        order.append((k, cols_k))
        for i in preds:
            heapq.heappush(heap, (len(inn[i]) * len(out[i]), i))
    root = active.pop()
    pi = {root: Fraction(1)}
    for k, cols in reversed(order):
        pi[k] = sum((pi[i] * f for i, f in cols.items()), Fraction(0))
    total = sum(pi.values(), Fraction(0))
    return {i: p / total for i, p in pi.items()}
