"""Exclusion-process kernels on a path: multispecies, two-species, starred.

States are tuples.  Multispecies states are signed-permutation windows
(species -n..-1, 1..n, one of each absolute value per site); two-species
states are words over {-1, 0, 1} with a fixed number of zeros; starred
states allow ``"*"`` at the boundary sites.

The multispecies, two-species and semipermeable chains share one move rule:
edge g (0..n) fires exactly when the word lies on the negative side of wall
g of the fundamental alcove (the simple roots, then -theta), and it moves
the word by the group generator s_g, the step of the reduced alcove walk.
The chains differ only in the edge probabilities.  The literal per-pair
pattern tables the rule replaces are kept in the tests as oracles.  The
starred chain has a boundary table of its own at each end.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidCounts, InvalidRank, UnsupportedKind
from .markov import Kernel, build_kernel
from .ratio import R
from .weyl import WeylKind, alcove_walls, apply_generator, kac_weights, signed_permutations

STAR = "*"

MULTI_FAMILIES = ("Ccheck", "B", "D")


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


def multi_states(kind: WeylKind, n: int) -> list:
    if kind.family not in MULTI_FAMILIES:
        raise UnsupportedKind(f"no multispecies model for family {kind.family}")
    return sorted(signed_permutations(n, even_only=kind.family == "D"))


def two_species_states(n: int, n0: int) -> list:
    if not 0 <= n0 <= n:
        raise InvalidCounts(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    states = []
    for zeros in itertools.combinations(range(n), n0):
        zs = set(zeros)
        rest = [i for i in range(n) if i not in zs]
        for signs in itertools.product((1, -1), repeat=len(rest)):
            w = [0] * n
            for i, s in zip(rest, signs):
                w[i] = s
            states.append(tuple(w))
    return sorted(states)


def dstar_states(n: int, n0: int) -> list:
    if n < 2:
        raise InvalidRank("starred process needs n >= 2")
    if not 0 <= n0 <= n:
        raise InvalidCounts(f"need 0 <= n0 <= n, got n0={n0}, n={n}")
    states = []
    for ends in itertools.product((0, STAR), repeat=2):
        inner_zeros = n0 - list(ends).count(0)
        if inner_zeros < 0 or inner_zeros > n - 2:
            continue
        for word in two_species_states(n - 2, inner_zeros):
            states.append((ends[0],) + word + (ends[1],))
    return sorted(states, key=state_sort_key)


def _exclusion_kernel(states, kind: WeylKind, probs) -> Kernel:
    """Edge g moves w to s_g(w) with probability probs[g] when <wall_g, w> < 0."""
    walls = tuple(enumerate(alcove_walls(kind)))
    index = {w: k for k, w in enumerate(states)}

    def moves(k):
        w = states[k]
        for g, (i0, c0, i1, c1) in walls:
            if c0 * w[i0] + c1 * w[i1] < 0:
                yield index[apply_generator(w, g, kind)], g

    return build_kernel(states, moves, probs)


def _kac_probs(kind: WeylKind) -> list:
    weights = kac_weights(kind)
    return [R(a, weights.total) for a in weights.weights]


def build_multi(kind: WeylKind, n: int) -> Kernel:
    """Kernel of the multispecies process for families Ccheck, B, D.

    Edge g (0..n) is selected with probability a_g / sum(a) where a are the
    family's step weights; the selected edge then moves by s_g when the
    state is on the negative side of wall g, otherwise the state holds.
    """
    fam = kind.family
    if fam not in MULTI_FAMILIES:
        raise UnsupportedKind(f"no multispecies kernel for family {fam}")
    if n < (2 if fam in ("B", "D") else 1):
        raise InvalidRank(f"family {fam} multispecies model needs larger n")
    wk = WeylKind(fam, n)
    return _exclusion_kernel(multi_states(kind, n), wk, _kac_probs(wk))


def build_two_species(kind: WeylKind, n: int, n0: int) -> Kernel:
    """Kernel of the two-species process for families Ccheck, B, D."""
    fam = kind.family
    if fam not in MULTI_FAMILIES:
        raise UnsupportedKind(f"no two-species kernel for family {fam}")
    if not 0 <= n0 <= n:
        raise InvalidCounts(f"need 0 <= n0 <= n, got {n0}")
    if n < (2 if fam in ("B", "D") else 1):
        raise InvalidRank(f"family {fam} two-species model needs larger n")
    wk = WeylKind(fam, n)
    return _exclusion_kernel(two_species_states(n, n0), wk, _kac_probs(wk))


def build_dstar(n: int, n0: int, params: DStarParams) -> Kernel:
    """Kernel of the starred two-species process on n sites.

    Edges 1..n-1 are uniform.  A bulk edge swaps its two sites when they
    are in decreasing order; each outer edge reads its move from a table
    of its end, which also carries the boundary rates.  For n = 2 the
    single edge would be both ends at once, and every state holds.
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

    return build_kernel(states, moves, probs)


def build_semipermeable(n: int, n0: int, alpha, beta) -> Kernel:
    """Open-boundary two-species kernel whose middle species never crosses.

    The Ccheck rule with uniform edges: species 1 enters as a sign flip at
    the first site (rate alpha relative to bulk), exits at the last site
    (rate beta); zeros are conserved.  The discrete chain selects among n+1
    edges uniformly and scales the boundary moves by the rates.
    """
    alpha, beta = R(alpha), R(beta)
    if alpha <= 0 or beta <= 0:
        raise InvalidCounts("boundary rates must be positive")
    edge = R(1, n + 1)
    probs = [edge * alpha] + [edge] * (n - 1) + [edge * beta]
    return _exclusion_kernel(two_species_states(n, n0), WeylKind("Ccheck", n), probs)
