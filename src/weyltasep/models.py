"""Exclusion-process kernels on a path: the cut chains and the starred chain.

States are tuples.  A cut chain's states are the signed permutations of
1..n coloured by a tuple of cuts c_1 < ... < c_r: each letter x becomes
sign(x) * #{c in cuts : c <= |x|}.  The cuts (1, ..., n) keep every letter
(the multispecies chain); one cut (n0 + 1,) gives the two-species words
over {-1, 0, 1} with n0 zeros.  Starred states allow ``"*"`` at the
boundary sites.

The cut chains of all five families and the semipermeable chain share one
move rule: edge g (0..n) fires exactly when the word lies on the negative
side of wall g of the fundamental alcove (the simple roots, then -theta),
and it reflects the word in wall g (`weyl.reflect`), the generator s_g of
the reduced alcove walk.  The chains differ only in the edge
probabilities.  The per-pair pattern tables and per-family generator
branches the rule replaces are kept in the tests as oracles.  The starred
chain has a boundary table of its own at each end.

``STAR_RATES`` holds the starred rates of each family, and :func:`star_chain`
gives the starred chain a family's one-cut chain lifts to by
``lumping.star_lift``; the lift's shape follows from the rates.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import InvalidCounts, InvalidRank
from .markov import Kernel, build_kernel, closed_class
from .ratio import R
from .weyl import WeylKind, alcove_walls, check_rank, kac_weights, reflect

STAR = "*"

_STAR_LAST = {STAR: math.inf}


def state_sort_key(word):
    """Deterministic ordering for states that may contain the star symbol, "*" last."""
    return tuple(map(_STAR_LAST.get, word, word))


@dataclass(frozen=True)
class DStarParams:
    """Boundary rates of the starred two-species process."""

    alpha: object
    alpha_star: object
    beta: object
    beta_star: object

    def __post_init__(self):
        vals = {
            "alpha": R(self.alpha),
            "alpha_star": R(self.alpha_star),
            "beta": R(self.beta),
            "beta_star": R(self.beta_star),
        }
        for name, v in vals.items():
            object.__setattr__(self, name, v)
            if not 0 <= v <= 1:
                raise InvalidCounts(f"{name} outside [0,1]")
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidCounts("alpha and beta must be positive")


# The rates (alpha, alpha*, beta, beta*) whose starred chain each family's
# one-cut chain lifts to.
STAR_RATES = {
    "Ccheck": DStarParams(1, 0, 1, 0),
    "C": DStarParams(R(1, 2), 0, R(1, 2), 0),
    "B": DStarParams(1, 0, R(1, 2), R(1, 2)),
    "Bcheck": DStarParams(R(1, 2), 0, R(1, 2), R(1, 2)),
    "D": DStarParams(*(R(1, 2),) * 4),
}


def star_rates(kind: WeylKind) -> DStarParams:
    """The family's ``STAR_RATES``; InvalidRank for D2, whose two sites are both ends."""
    if kind.family == "D" and kind.n < 3:
        raise InvalidRank(f"the D starred chain needs rank n >= 3, got {kind.n}")
    return STAR_RATES[kind.family]


def cut_states(kind: WeylKind, cuts) -> list:
    """The words x -> sign(x) * #{c in cuts : c <= |x|} of the signed permutations, sorted.

    The cuts rise strictly within 1..n+1; a cut at n+1 colours nothing.
    For D without a zero (c_1 = 1) only the words with an even number of
    minus signs are kept, the image of the even signed permutations.
    """
    n, cuts = kind.n, tuple(cuts)
    if not cuts or list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] > n + 1:
        raise InvalidCounts(f"cuts must rise strictly within 1..{n + 1}, got {cuts}")
    colours = [bisect_right(cuts, x) for x in range(1, n + 1)]
    words = (w for perm in set(itertools.permutations(colours))
             for w in itertools.product(*[(c, -c) if c else (0,) for c in perm]))
    if kind.family == "D" and cuts[0] == 1:
        words = (w for w in words if sum(x < 0 for x in w) % 2 == 0)
    return sorted(words)


def dstar_states(n: int, n0: int) -> list:
    if n < 2:
        raise InvalidRank("starred process needs n >= 2")
    if not 0 <= n0 <= n:
        raise InvalidCounts(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    ends, inner = (0, STAR), (-1, 0, 1)
    words = itertools.product(ends, *[inner] * (n - 2), ends)
    return sorted((w for w in words if w.count(0) == n0), key=state_sort_key)


def _exclusion_kernel(states, kind: WeylKind, probs) -> Kernel:
    """Edge g reflects w in wall g with probability probs[g] when <wall_g, w> < 0."""
    walls = tuple(enumerate(alcove_walls(kind)))
    index = {w: k for k, w in enumerate(states)}

    def moves(k):
        w = states[k]
        for g, wall in walls:
            i0, c0, i1, c1 = wall
            if c0 * w[i0] + c1 * w[i1] < 0:
                yield index[reflect(w, wall)], g

    return build_kernel(states, moves, probs)


def build_cut_chain(kind: WeylKind, cuts) -> Kernel:
    """Kernel of the family's exclusion chain on the words of :func:`cut_states`.

    Edge g (0..n) is selected with probability a_g / sum(a) where a are the
    family's step weights; the selected edge then reflects the state in
    wall g when it is on the wall's negative side, otherwise the state holds.
    """
    weights = kac_weights(kind)
    probs = [R(a, weights.total) for a in weights.weights]
    return _exclusion_kernel(cut_states(kind, cuts), kind, probs)


def build_multi(kind: WeylKind, n: int) -> Kernel:
    """Kernel of the multispecies chain: the cut chain with cuts (1, ..., n), n kind's rank."""
    check_rank(kind, n)
    return build_cut_chain(kind, range(1, n + 1))


def build_dstar(n: int, n0: int, params: DStarParams) -> Kernel:
    """Kernel of the starred two-species process on n sites.

    Edges 1..n-1 are uniform.  A bulk edge swaps its two sites when they
    are in decreasing order; each outer edge reads its move from a table
    of its end, which also carries the boundary rates.  For n = 2 the
    single edge would be both ends at once, and every state holds.  The
    candidate law is :func:`tworow.top_row_law`.
    """
    states = dstar_states(n, n0)
    if not states:
        raise InvalidCounts(f"empty state space for n={n}, n0={n0}")
    index = {w: k for k, w in enumerate(states)}
    # Edge 0 is a bulk swap, edges 1..4 carry the boundary rates.
    probs = [R(1, n - 1) * r for r in (1, params.alpha, params.alpha_star, params.beta,
                                       params.beta_star)]
    # (pair at the first two sites) -> (new pair, edge); the same at the
    # last two sites.
    left = {(STAR, -1): ((STAR, 1), 1), (STAR, 0): ((0, 1), 2), (0, -1): ((STAR, 0), 0)}
    right = {(1, STAR): ((-1, STAR), 3), (0, STAR): ((-1, 0), 4), (1, 0): ((0, STAR), 0)}

    def moves(k):
        if n == 2:
            return
        w = states[k]
        hit = left.get(w[:2])
        if hit is not None:
            yield index[hit[0] + w[2:]], hit[1]
        for i in range(1, n - 2):
            if w[i] > w[i + 1]:
                yield index[w[:i] + (w[i + 1], w[i]) + w[i + 2:]], 0
        hit = right.get(w[-2:])
        if hit is not None:
            yield index[w[:-2] + hit[0]], hit[1]

    def candidate():  # imported when called: tworow imports this module
        from .tworow import top_row_law
        return top_row_law(n, n0, params)

    return build_kernel(states, moves, probs, candidate)


def star_chain(kind: WeylKind, n0: int) -> Kernel:
    """The starred chain at the family's ``STAR_RATES`` that its one-cut chain (n0 + 1,) lifts to.

    It has n sites plus a fixed star per zero starred rate.  It keeps the
    states holding that star at each padded end (no move takes it away),
    restricted to their one closed class (NotIrreducible if there is not
    exactly one).  D needs rank 3 (InvalidRank).
    """
    params = star_rates(kind)
    pads = (params.alpha_star == 0) + (params.beta_star == 0)
    ker = build_dstar(kind.n + pads, n0, params)
    ker = ker.restrict(w for w in ker.states if (params.alpha_star or w[0] == STAR)
                       and (params.beta_star or w[-1] == STAR))
    return ker.restrict(closed_class(ker))


def build_semipermeable(n: int, n0: int, alpha, beta) -> Kernel:
    """Open-boundary two-species kernel whose middle species never crosses.

    The Ccheck rule with uniform edges: species 1 enters as a sign flip at
    the first site (rate alpha relative to bulk), exits at the last site
    (rate beta); zeros are conserved.  The discrete chain selects among n+1
    edges uniformly and scales the boundary moves by the rates.
    """
    if n < 1:
        raise InvalidRank(f"the semipermeable process needs rank n >= 1, got {n}")
    alpha, beta = R(alpha), R(beta)
    if alpha <= 0 or beta <= 0:
        raise InvalidCounts("boundary rates must be positive")
    if not 0 <= n0 <= n:
        raise InvalidCounts(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    edge = R(1, n + 1)
    probs = [edge * alpha] + [edge] * (n - 1) + [edge * beta]
    kind = WeylKind("Ccheck", n)
    return _exclusion_kernel(cut_states(kind, (n0 + 1,)), kind, probs)
