"""Independent oracle computations used by the tests.

These deliberately avoid the library's own formulas: word lengths come from
breadth-first search over the generators, stationary vectors from floating
point power iteration or from state elimination over fractions.Fraction,
the stationarity certificate from one Fraction operation per entry,
kernels assembled with one Fraction per entry instead of integer weights
over one denominator,
counts from brute enumeration, exclusion-chain state spaces from the signed
permutations with a parity filter and from zero positions and signs instead
of cut colourings, exclusion-chain kernels from literal
per-pair pattern tables instead of the wall rule, the starred kernel from
a branch per boundary pattern instead of two boundary tables, two-row
validity from a hand loop over the columns instead of the checked label
scan, two-row laws from one
weight per configuration instead of one per label class, label weights and
sums of inverse rate powers from one Fraction operation per factor instead
of integer numerators over one denominator, two-row labels
from the positions of the 0-columns instead of a one-pass scan, two-row
label histograms by labelling every listed configuration instead of a
column transfer, the two-row kernel from the wall maps applied as it is built
instead of one table per configuration space, Motzkin sums from one weight product per path, and Motzkin
exponent histograms by walking every step word instead of a transfer over
steps, the alcove walk on two lists (window and y) with a full ascent
refresh instead of one packed list, walk proposals from a float CDF and
bisection instead of a byte table, the separation count in Fractions
over dense root vectors instead of integers over two-term pairings
scaled by a common denominator, the fundamental
point from one elimination per alcove vertex instead of one inverse of
the simple-root matrix, and the highest-root
direction summed over the full multispecies law instead of the tails of
the one-cut chains, final-pair correlations tallied over the full
multispecies law instead of read off the two-cut chains by
inclusion-exclusion, the closed classes by reachability from every
state instead of two searches, and the coarsest exact lumping by rounds
of re-signing every state instead of splitter refinement.  It also keeps
the helpers only tests use: a kernel's entries and rows as Fractions,
the full multispecies law (solved once per test run), site
densities and hook sums read off it, the JSON decoder of a law,
the reversal symmetry of two-species words, the linear action of a window,
window products and inverses,
the roots as dense vectors in textbook coordinates, and the length of a
window as the number of positive roots it sends to negative ones.
"""
from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_left
from collections import Counter, deque, namedtuple
from fractions import Fraction
from functools import lru_cache

from weyltasep import closedform as cf
from weyltasep import tworow as tr
from weyltasep.errors import NonGenericPoint, UnsupportedRange, ZeroParameter
from weyltasep.markov import Dist, Kernel, exact_stationary
from weyltasep.models import STAR, build_multi, state_sort_key
from weyltasep.ratio import R, parse_ratio
from weyltasep.tworow import COL_DOWN, COL_RISE, COL_STAR, COL_UP, COL_ZERO, LabelCounts
from weyltasep.walk import fundamental_point
from weyltasep.weyl import (
    WeylKind,
    alcove_walls,
    apply_generator,
    identity_window,
    inverse_act_theta,
    kac_weights,
    theta_raises,
)


# --- kernel entries as Fractions --------------------------------------------


def kernel_prob(kernel: Kernel, src, dst) -> R:
    """Entry (src, dst) of a kernel as a Fraction."""
    return R(kernel.rows[kernel.index[src]].get(kernel.index[dst], 0), kernel.den)


def kernel_row(kernel: Kernel, src) -> dict:
    """The row of src as state -> Fraction, its nonzero entries only."""
    return {kernel.states[j]: R(a, kernel.den) for j, a in kernel.rows[kernel.index[src]].items()}


# --- state spaces by brute enumeration -------------------------------------


def signed_permutations(n: int, even_only: bool = False):
    """All windows on n letters; optionally only even numbers of negatives."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if even_only and signs.count(-1) % 2:
                continue
            yield tuple(s * p for s, p in zip(signs, perm))


def multi_words(family: str, n: int) -> list:
    """The multispecies states, sorted: every window, or the even ones for D."""
    return sorted(signed_permutations(n, even_only=family == "D"))


def two_species_words(n: int, n0: int) -> list:
    """Words over {-1, 0, 1} with n0 zeros, sorted, from the zero positions and the signs."""
    states = []
    for zeros in itertools.combinations(range(n), n0):
        rest = [i for i in range(n) if i not in zeros]
        for signs in itertools.product((1, -1), repeat=len(rest)):
            w = [0] * n
            for i, s in zip(rest, signs):
                w[i] = s
            states.append(tuple(w))
    return sorted(states)


def dstar_words(n: int, n0: int) -> list:
    """Starred states: a 0 or a star at each end around a two-species word."""
    states = []
    for ends in itertools.product((0, STAR), repeat=2):
        inner_zeros = n0 - ends.count(0)
        if 0 <= inner_zeros <= n - 2:
            states += [(ends[0],) + w + (ends[1],) for w in two_species_words(n - 2, inner_zeros)]
    return sorted(states, key=state_sort_key)


def act(w, v) -> tuple:
    """Linear action of w on a vector: (w.v)_j = sign(w_j) v_{|w_j|}."""
    if len(v) != len(w):
        raise ValueError(f"vector length {len(v)} != rank {len(w)}")
    return tuple(v[a - 1] if a > 0 else -v[-a - 1] for a in w)


def wprod(a, b):
    """Window of the composed linear map: act(wprod(a,b), v) == act(a, act(b, v))."""
    return tuple(b[x - 1] if x > 0 else -b[-x - 1] for x in a)


def inverse(w):
    """The window of w's inverse."""
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        if val > 0:
            out[val - 1] = pos
        else:
            out[-val - 1] = -pos
    return tuple(out)


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
    assert len(dist) == len(multi_words(kind.family, n)), "generators miss part of the group"
    return dist


# --- roots as dense vectors ---------------------------------------------------


DenseRoots = namedtuple("DenseRoots", "positive_roots simple_roots theta")


@lru_cache(maxsize=None)
def dense_roots(kind: WeylKind) -> DenseRoots:
    """The roots of `weyl.root_data` as dense n-tuples, from the textbook coordinates.

    Positive roots, in this order: e_i (B) or 2e_i (C) for each i, then
    e_j - e_i, then e_i + e_j, for i < j ordered by j and then i.  Simple
    roots: e_1 (B), 2e_1 (C) or e_1 + e_2 (D), then e_{i+1} - e_i.  The
    highest root: e_{n-1} + e_n (B from rank 2, D), e_1 (B1) or 2e_n (C).
    """
    n, fam = kind.n, kind.root_family

    def e(*terms):
        """Sum of c * e_i over the (c, i) terms, i from 1."""
        v = [0] * n
        for c, i in terms:
            v[i - 1] += c
        return tuple(v)

    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    one_term = {"B": [e((1, i)) for i in range(1, n + 1)],
                "C": [e((2, i)) for i in range(1, n + 1)], "D": []}[fam]
    positive = one_term + [e((-1, i), (1, j)) for i, j in pairs] + [e((1, i), (1, j)) for i, j in pairs]
    first = e((1, 1), (1, 2)) if fam == "D" else e((2 if fam == "C" else 1, 1))
    simple = (first,) + tuple(e((-1, i), (1, i + 1)) for i in range(1, n))
    if fam == "C":
        theta = e((2, n))
    else:
        theta = e((1, n - 1), (1, n)) if n >= 2 else e((1, 1))
    return DenseRoots(tuple(positive), simple, theta)


def as_pairing(alpha) -> tuple:
    """The two-term pairing (i0, c0, i1, c1) of a dense root, as `weyl` writes roots."""
    terms = [(i, c) for i, c in enumerate(alpha) if c] + [(0, 0)]
    return terms[0] + terms[1]


@lru_cache(maxsize=None)
def _positive_root_set(kind: WeylKind) -> frozenset:
    return frozenset(dense_roots(kind).positive_roots)


def length(w, kind: WeylKind) -> int:
    """Number of positive roots sent to negative roots by the action of w."""
    pos = _positive_root_set(kind)
    return sum(1 for alpha in pos if act(w, alpha) not in pos)


def power_iteration(kernel, sweeps: int = 20000) -> dict:
    """Floating-point stationary vector by repeated multiplication."""
    m = len(kernel)
    vec = [1.0 / m] * m
    rows = [{j: float(Fraction(a, kernel.den)) for j, a in row.items()} for row in kernel.rows]
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
        i: {j: Fraction(a, kernel.den) for j, a in kernel.rows[i].items()
            if j != i and j in member_set}
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


def closed_classes(kernel) -> list[frozenset]:
    """The closed communicating classes, by their least state index.

    A state's reachable set is a closed class exactly when every state in
    it reaches back; quadratic, for small chains only.  The reference for
    markov.closed_class, which finds the class by two searches.
    """
    reach = []
    for i in range(len(kernel)):
        seen, todo = {i}, [i]
        while todo:
            for j in kernel.rows[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    closed = {frozenset(kernel.states[j] for j in r) for i, r in enumerate(reach)
              if all(i in reach[j] for j in r)}
    return sorted(closed, key=lambda c: min(map(kernel.index.__getitem__, c)))


def fraction_certificate(kernel, pi_idx: dict) -> bool:
    """pi sums to 1 and pi . P = pi (pi is 0 off pi_idx), one Fraction per entry.

    The reference for markov._is_stationary, which checks the same in
    integers scaled by the lcm of the denominators.
    """
    if sum(pi_idx.values(), Fraction(0)) != 1:
        return False
    flow: dict = {}
    for i, p in pi_idx.items():
        for j, a in kernel.rows[i].items():
            flow[j] = flow.get(j, Fraction(0)) + p * Fraction(a, kernel.den)
    return all(flow.get(j, 0) == pi_idx.get(j, 0) for j in flow.keys() | pi_idx.keys())


def exact_lumping(kernel, members: list[int]) -> set[frozenset]:
    """The coarsest exactly lumpable partition of `members`, by rounds to a fixpoint.

    Each round signs every state j by its block and the set of pairs
    (block B', sum over i in B' of rows[i][j]) with a nonzero sum, and the
    new blocks are the states with equal signatures; the rounds stop when
    the number of blocks stays the same.  Quadratic per round, for small
    chains only.  The reference for markov._lumped, which refines by
    splitters.
    """
    block = {i: 0 for i in members}
    count = 1
    while True:
        sums: dict[int, Counter] = {j: Counter() for j in members}
        for i in members:
            for j, a in kernel.rows[i].items():
                sums[j][block[i]] += a
        signs = {j: (block[j], frozenset(sums[j].items())) for j in members}
        names = {sig: k for k, sig in enumerate(dict.fromkeys(signs.values()))}
        block = {j: names[signs[j]] for j in members}
        if len(names) == count:
            break
        count = len(names)
    parts: dict[int, set] = {}
    for j, b in block.items():
        parts.setdefault(b, set()).add(j)
    return {frozenset(p) for p in parts.values()}


def is_exactly_lumpable(kernel, parts) -> bool:
    """Every state of a block gets the same column sum from every block, checked pairwise."""
    for source in parts:
        for target in parts:
            sums = {sum(kernel.rows[i].get(j, 0) for i in source) for j in target}
            if len(sums) > 1:
                return False
    return True


# --- kernels with one Fraction per entry -------------------------------------


def fraction_kernel(states, moves):
    """A kernel from moves(state) -> (target state, probability), one Fraction per entry.

    Moves to one target add up and the leftover mass holds; the rows go
    through the validated Kernel constructor, which rejects a negative or
    oversized entry and a row that does not sum to 1.
    """
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    rows = []
    for i, s in enumerate(states):
        row: dict[int, Fraction] = {}
        for target, p in moves(s):
            p = Fraction(p)
            if p:
                j = index[target]
                row[j] = row.get(j, Fraction(0)) + p
        hold = 1 - sum(row.values(), Fraction(0))
        if hold:
            row[i] = row.get(i, Fraction(0)) + hold
        rows.append(row)
    return Kernel(states, rows)


# --- exclusion chains from pattern tables -----------------------------------


@lru_cache(maxsize=None)
def theta_move_patterns(n: int) -> dict:
    """Last-two-site moves (a, b) -> (-b, -a), tabulated pairwise."""
    pats = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pats[(j, i)] = (-i, -j)
            pats[(j, -i)] = (i, -j)
            pats[(i, j)] = (-j, -i)
            pats[(-i, j)] = (-j, i)
    return pats


@lru_cache(maxsize=None)
def first_move_patterns_d(n: int) -> dict:
    """First-two-site moves of the D family, tabulated pairwise."""
    pats = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pats[(-i, -j)] = (j, i)
            pats[(i, -j)] = (j, -i)
            pats[(-j, -i)] = (i, j)
            pats[(-j, i)] = (-i, j)
    return pats


TWO_THETA = {(1, 1): (-1, -1), (0, 1): (-1, 0), (1, 0): (0, -1)}
TWO_FIRST_D = {(-1, -1): (1, 1), (-1, 0): (0, 1), (0, -1): (1, 0)}


def _table_moves(family: str, n: int, probs, first_d: dict, last_bd: dict):
    """Per-state moves: bulk swaps, then the boundary edges read off the tables."""

    def put(w, k, pair):
        return w[:k] + pair + w[k + 2:]

    def moves(w):
        for ell in range(n + 1):
            p = probs[ell]
            if 1 <= ell <= n - 1:
                if w[ell - 1] > w[ell]:
                    yield put(w, ell - 1, (w[ell], w[ell - 1])), p
            elif ell == 0:
                if family == "D":
                    tgt = first_d.get((w[0], w[1]))
                    if tgt is not None:
                        yield put(w, 0, tgt), p
                elif w[0] < 0:
                    yield (-w[0],) + w[1:], p
            elif family in ("C", "Ccheck"):
                if w[-1] > 0:
                    yield w[:-1] + (-w[-1],), p
            else:
                tgt = last_bd.get((w[-2], w[-1]))
                if tgt is not None:
                    yield put(w, n - 2, tgt), p

    return moves


def _kac_probs(family: str, n: int) -> list:
    kw = kac_weights(WeylKind(family, n))
    return [R(a, kw.total) for a in kw.weights]


def table_multi_kernel(family: str, n: int):
    """The multispecies kernel built from the pairwise pattern tables."""
    moves = _table_moves(
        family, n, _kac_probs(family, n), first_move_patterns_d(n), theta_move_patterns(n)
    )
    return fraction_kernel(multi_words(family, n), moves)


def table_two_species_kernel(family: str, n: int, n0: int):
    """The two-species kernel built from the TWO_* tables; every sign word for D at n0 = 0."""
    moves = _table_moves(family, n, _kac_probs(family, n), TWO_FIRST_D, TWO_THETA)
    return fraction_kernel(two_species_words(n, n0), moves)


def table_semipermeable_kernel(n: int, n0: int, alpha, beta):
    """The semipermeable kernel: Ccheck boundary flips scaled by the rates."""
    edge = R(1, n + 1)
    probs = [edge * R(alpha)] + [edge] * (n - 1) + [edge * R(beta)]
    return fraction_kernel(two_species_words(n, n0), _table_moves("Ccheck", n, probs, {}, {}))



def branch_dstar_kernel(n: int, n0: int, params):
    """The starred kernel with one branch per boundary pattern."""
    a, a_s = params.alpha, params.alpha_star
    b, b_s = params.beta, params.beta_star
    edge = R(1, n - 1)

    def put(w, k, pair):
        lst = list(w)
        lst[k], lst[k + 1] = pair
        return tuple(lst)

    def moves(w):
        if n == 2:
            return
        x, y = w[0], w[1]
        if x == STAR and y == -1:
            yield put(w, 0, (STAR, 1)), edge * a
        elif x == STAR and y == 0:
            yield put(w, 0, (0, 1)), edge * a_s
        elif x == 0 and y == -1:
            yield put(w, 0, (STAR, 0)), edge
        for ell in range(2, n - 1):
            if w[ell - 1] > w[ell]:
                yield put(w, ell - 1, (w[ell], w[ell - 1])), edge
        x, y = w[n - 2], w[n - 1]
        if y == STAR and x == 1:
            yield put(w, n - 2, (-1, STAR)), edge * b
        elif y == STAR and x == 0:
            yield put(w, n - 2, (-1, 0)), edge * b_s
        elif x == 1 and y == 0:
            yield put(w, n - 2, (0, STAR)), edge

    return fraction_kernel(dstar_words(n, n0), moves)

# --- two-row weights and Motzkin paths, one product per object ---------------


def tworow_valid(c) -> bool:
    """Whether the pair of rows is a valid configuration, checked column by column."""
    top, bot = c
    n = len(top)
    if n == 0 or len(bot) != n:
        return False
    height = 0
    for k in range(n):
        t, b = top[k], bot[k]
        if t == STAR or b == STAR:
            if (t, b) != COL_STAR or k not in (0, n - 1):
                return False
            continue
        if t == 0 or b == 0:
            if (t, b) != COL_ZERO or height != 0:
                return False
            continue
        if t not in (-1, 1) or b not in (-1, 1):
            return False
        if k in (0, n - 1):
            return False
        if (t, b) == COL_UP:
            height += 1
        elif (t, b) == COL_DOWN:
            height -= 1
            if height < 0:
                return False
    return height == 0


def tworow_labels(c) -> LabelCounts:
    """The label vector of a valid configuration, from the positions of its 0-columns."""
    top, bot = c
    n = len(top)
    zpos = [k for k in range(n) if top[k] == 0]
    leftmost0 = zpos[0] if zpos else None
    rightmost0 = zpos[-1] if zpos else None
    height = 0
    n_y = n_z = 0
    seen_zprime = False
    for k in range(n):
        col = (top[k], bot[k])
        if col in (COL_STAR, COL_ZERO):
            continue
        left_of_zeros = leftmost0 is None or k < leftmost0
        if col == COL_UP:
            if height == 0 and left_of_zeros and not seen_zprime:
                n_y += 1
            height += 1
        elif col == COL_DOWN:
            height -= 1
        elif col == COL_RISE:
            if height == 0 and left_of_zeros and not seen_zprime:
                n_y += 1
        else:  # COL_FALL
            if height == 0:
                if rightmost0 is None or k > rightmost0:
                    n_z += 1
                if left_of_zeros:
                    seen_zprime = True
    return LabelCounts(
        n_y, n_z, int(top[0] == STAR), int(top[-1] == STAR)
    )


def inverse_power_product(e, rates) -> Fraction:
    """prod r_k^(-e_k), one Fraction power and division per rate."""
    q = Fraction(1)
    for rate, count in zip(rates, e):
        q = q / Fraction(rate) ** count
    return q


def inverse_power_sum(terms, rates) -> Fraction:
    """The sum of m * prod r_k^(-e_k) over the (e, m) pairs, one Fraction at a time."""
    return sum((m * inverse_power_product(e, rates) for e, m in terms), Fraction(0))


def label_weight(lab, params) -> Fraction:
    """Product of inverse boundary rates over a label vector, one label kind at a time.

    A starred factor whose rate is zero is skipped; a zero rate on a y or z
    label raises ZeroParameter.
    """
    q = Fraction(1)
    for count, rate, starred in (
        (lab.n_y, params.alpha, False),
        (lab.n_ystar, params.alpha_star, True),
        (lab.n_z, params.beta, False),
        (lab.n_zstar, params.beta_star, True),
    ):
        if count == 0:
            continue
        if rate == 0:
            if starred:
                continue
            raise ZeroParameter("zero rate on a labelled column")
        q = q / Fraction(rate) ** count
    return q


def tworow_weight(c, params) -> Fraction:
    """Product of inverse boundary rates over the labels of one configuration."""
    return label_weight(tworow_labels(c), params)


def tworow_stationary(n: int, n0: int, params):
    """(law, Z) with a weight per configuration of the restricted class and law q/Z.

    The law is a dict over every configuration in enumeration order; None
    when the restricted class is empty.  A space of one configuration is a
    one-state chain, so it is its own class whatever the rates.
    """
    configs = tr.enumerate_configs(n, n0)
    keep = list(configs)
    if len(configs) > 1:  # a vanishing starred rate keeps the configurations with that star
        if params.alpha_star == 0:
            keep = [c for c in keep if c[0][0] == STAR]
        if params.beta_star == 0:
            keep = [c for c in keep if c[0][-1] == STAR]
    if not keep:
        return None
    weights = {c: tworow_weight(c, params) for c in keep}
    z = sum(weights.values(), Fraction(0))
    probs = {c: Fraction(0) for c in configs}
    for c, w in weights.items():
        probs[c] = w / z
    return probs, z


def tworow_label_histogram(n: int, n0: int) -> Counter:
    """Number of configurations per label vector, labelling each listed configuration."""
    return Counter(tworow_labels(c) for c in tr.enumerate_configs(n, n0))


def tworow_kernel(n: int, n0: int, params):
    """The two-row chain with every wall map applied to its configuration as it is built."""
    edge = Fraction(1, n - 1) if n >= 2 else Fraction(1)

    def moves(c):
        for i in range(1, n):
            c2, rule, _ = tr._apply(c, i)
            if rule is not None and c2 != c:
                yield c2, edge * tr.rate_of(rule, params)

    return fraction_kernel(tr.enumerate_configs(n, n0), moves)


def motzkin_exponents(k: int) -> tuple:
    """Histogram ((i, j), m) of the k-step path weights, walking all 4^k step words.

    i counts the alpha-weighted steps (up-steps from the axis and first-color
    level steps on it, left of every beta-weight), j the beta-weighted ones
    (second-color level steps on the axis).
    """
    hist: dict = {}
    for steps in itertools.product(("u", "d", "r", "b"), repeat=k):
        h = i = j = 0
        ok = True
        for s in steps:
            if s == "u":
                if h == 0 and not j:
                    i += 1
                h += 1
            elif s == "d":
                h -= 1
                if h < 0:
                    ok = False
                    break
            elif s == "r":
                if h == 0 and not j:
                    i += 1
            elif h == 0:
                j += 1
        if ok and h == 0:
            hist[i, j] = hist.get((i, j), 0) + 1
    return tuple(sorted(hist.items()))


def bicolored_motzkin_sum(k: int, alpha, beta) -> Fraction:
    """Sum over the k-step bicolored Motzkin paths of each path's weight product."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    total = Fraction(0)
    for steps in itertools.product(("u", "d", "r", "b"), repeat=k):
        h = 0
        ok = True
        w = Fraction(1)
        seen_beta = False
        for s in steps:
            if s == "u":
                if h == 0 and not seen_beta:
                    w = w / alpha
                h += 1
            elif s == "d":
                h -= 1
                if h < 0:
                    ok = False
                    break
            elif s == "r":
                if h == 0 and not seen_beta:
                    w = w / alpha
            else:
                if h == 0:
                    w = w / beta
                    seen_beta = True
        if ok and h == 0:
            total += w
    return total


# --- alcove walk on two lists ------------------------------------------------


def fundamental_point_by_vertices(kind: WeylKind, n: int) -> tuple:
    """Barycenter of the fundamental alcove, one exact elimination per vertex.

    Vertex k solves the n of the n + 1 wall equations (the simple roots at
    0, theta at 1) that leave out wall k, by Gauss-Jordan over Fractions;
    the walls are dependent (UnsupportedRange) when one of those systems is
    singular.  The genericity test takes every root pairing in Fractions.
    """
    kind = WeylKind(kind.family, n)
    rs = dense_roots(kind)
    rows = [list(a) for a in rs.simple_roots] + [list(rs.theta)]
    rhs = [0] * n + [1]
    vertices = []
    for drop in range(n + 1):
        a = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])]
             for i in range(n + 1) if i != drop]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise UnsupportedRange("the alcove walls are linearly dependent (as for D2)")
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        vertices.append([a[r][n] for r in range(n)])
    bary = tuple(sum((v[j] for v in vertices), Fraction(0)) / (n + 1) for j in range(n))
    for alpha in rs.positive_roots:
        if sum(Fraction(c) * x for c, x in zip(alpha, bary)).denominator == 1:
            raise NonGenericPoint(f"barycenter meets a wall of root {as_pairing(alpha)}")
    return bary


def two_list_walk(kind: WeylKind, n: int, proposals):
    """The alcove walk on two lists, the inverse window and y, with full refresh.

    The kernel the packed walk replaced, and the reference for the loop
    `walk._advance` runs, generated per family and rank: an accepted
    generator g swaps the same two entries in both lists, adds the affine
    shift entry by entry and re-tests every Dynkin neighbour of g, g itself
    included.  Returns the accepted count, the window, y (scaled by d), the
    point u(x0) and the ascent table.
    """
    kind = WeylKind(kind.family, n)
    rs = dense_roots(kind)
    base = fundamental_point(kind, n)
    d = math.lcm(*(v.denominator for v in base))
    x0 = tuple(int(v * d) for v in base)
    walls = rs.simple_roots + (rs.theta,)
    ascent = []
    for g, (i0, c0, i1, c1) in enumerate(alcove_walls(kind)):
        lev = -d if g == n else 0
        side = 1 if c0 * x0[i0] + c1 * x0[i1] > lev else -1
        ascent.append((g, i0, side * c0, i1, side * c1, side * lev))
    theta_norm = sum(c * c for c in rs.theta)
    tau = tuple(d * (2 * c // theta_norm) for c in rs.theta)
    moves = []
    for g, alpha in enumerate(walls):
        win = apply_generator(identity_window(n), g, kind)
        supp = [i for i in range(n) if win[i] != i + 1]
        p, q = supp[0], supp[-1]
        shift = tuple((i, c) for i, c in enumerate(tau) if c) if g == n else ()
        refresh = tuple(
            ascent[h] for h, beta in enumerate(walls)
            if sum(a * b for a, b in zip(alpha, beta))
        )
        moves.append((p, q, 1 if win[p] > 0 else -1, shift, refresh))
    winv, y, asc = list(range(1, n + 1)), list(x0), [True] * (n + 1)
    accepted = 0
    for g in proposals:
        if asc[g]:
            p, q, s, shift, refresh = moves[g]
            winv[p], winv[q] = s * winv[q], s * winv[p]
            y[p], y[q] = s * y[q], s * y[p]
            for i, c in shift:
                y[i] += c
            for h, i0, c0, i1, c1, lev in refresh:
                asc[h] = c0 * y[i0] + c1 * y[i1] > lev
            accepted += 1
    x = list(x0)
    for i, a in enumerate(winv):
        if a > 0:
            x[a - 1] += x0[i] - y[i]
        else:
            x[-a - 1] -= x0[i] - y[i]
    return accepted, winv, y, tuple(Fraction(v, d) for v in x), asc


def float_cdf_proposals(kind: WeylKind, n: int, steps: int, seed: int) -> list:
    """The proposal stream the byte table replaced, draw for draw.

    The PRNG was seeded with seed * 1000003 (the former per-trial seed of
    trial 0), and each draw r of random() proposed the first g with
    r <= cum[g], cum the float CDF of the step weights with its last entry
    raised above 1.  It only approximates P(g) = a_g / T.
    """
    weights = kac_weights(WeylKind(kind.family, n)).weights
    total = sum(weights)
    cum = list(itertools.accumulate(a / total for a in weights))
    cum[-1] = 1.1
    rnd = random.Random((seed * 1_000_003) & 0x7FFFFFFFFFFFFFFF).random
    return [bisect_left(cum, rnd()) for _ in range(steps)]


def separation_count(x, kind: WeylKind, n: int) -> int:
    """Hyperplanes separating x from the fundamental point, in Fractions.

    Per positive root, the integers strictly between the two pairings,
    with floors taken by math.floor on each Fraction pairing.
    """
    kind = WeylKind(kind.family, n)
    base = fundamental_point(kind, n)
    total = 0
    for alpha in dense_roots(kind).positive_roots:
        pa = sum(Fraction(c) * Fraction(v) for c, v in zip(alpha, base))
        px = sum(Fraction(c) * Fraction(v) for c, v in zip(alpha, x))
        if px.denominator == 1:
            raise NonGenericPoint(f"point lies on a wall of root {as_pairing(alpha)}")
        total += abs(math.floor(px) - math.floor(pa))
    return total


# --- the full multispecies chain ------------------------------------------------


@lru_cache(maxsize=None)
def full_chain_law(family: str, n: int) -> Dist:
    """Exact law of the 2^n n! multispecies chain, solved once per test run."""
    return exact_stationary(build_multi(WeylKind(family, n), n))


def full_chain_pairs(family: str, n: int) -> dict:
    """Final-pair probabilities tallied over the full chain's law, zero cells left out."""
    out: dict = {}
    for w, p in full_chain_law(family, n).items():
        if p:
            out[(w[-2], w[-1])] = out.get((w[-2], w[-1]), Fraction(0)) + p
    return out


def full_chain_direction(family: str, n: int) -> cf.DirectionVector:
    """Sum over the exact multispecies law of pi(w) * w^{-1}(theta), for w raised by s_theta."""
    kind = WeylKind(family, n)
    psi = [Fraction(0)] * n
    for w, p in full_chain_law(family, n).items():
        if p and theta_raises(w, kind):
            for idx, c in enumerate(inverse_act_theta(w, kind)):
                psi[idx] += p * c
    return cf.DirectionVector(tuple(psi))


# --- helpers only the tests use -----------------------------------------------


def last_site_density(family: str, n: int) -> dict:
    """Law of the letter at the last site of the exact multispecies law."""
    out: dict = {}
    for w, p in full_chain_law(family, n).items():
        out[w[-1]] = out.get(w[-1], Fraction(0)) + p
    return out


def first_site_density(family: str, n: int) -> dict:
    """Law of the letter at the first site of the exact multispecies law."""
    out: dict = {}
    for w, p in full_chain_law(family, n).items():
        out[w[0]] = out.get(w[0], Fraction(0)) + p
    return out


def hook_sums_exact(family: str, n: int, i: int):
    """Row/column/hook sums straight from the final pairs of the full chain's law."""
    corr = full_chain_pairs(family, n)
    row = sum((p for (a, _), p in corr.items() if a == i), Fraction(0))
    col = sum((p for (_, b), p in corr.items() if b == i), Fraction(0))
    if i < 0:
        return cf.HookSums(row, col, None, None)
    hd = hu = Fraction(0)
    for j in range(i + 1, n + 1):
        hd += corr.get((i, -j), Fraction(0)) + corr.get((j, -i), Fraction(0))
        hu += corr.get((-j, i), Fraction(0)) + corr.get((-i, j), Fraction(0))
    return cf.HookSums(row, col, hd, hu)


def dist_from_json_obj(obj: list, state_decoder=None) -> Dist:
    """The law written by Dist.to_json_obj; list states come back as tuples."""
    probs = {}
    for entry in obj:
        s = entry["state"]
        if state_decoder is not None:
            s = state_decoder(s)
        elif isinstance(s, list):
            s = tuple(tuple(x) if isinstance(x, list) else x for x in s)
        probs[s] = parse_ratio(entry["p"])
    return Dist(probs)


def reversal_bijection(w):
    """Reverse a two-species word and negate it (a kernel symmetry)."""
    return tuple(-x for x in reversed(w))
