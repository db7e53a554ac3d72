"""Projections between chains and the exact test that they stay Markov.

A state map is a callable that sends the big chain's states onto the small
chain's states; it is a lumping when each aggregated row depends only on
the image state.  :func:`verify_lumping` answers yes or no: whether the map
is a lumping whose aggregated rows are the small kernel's, checked exactly,
row by row.  :func:`project_distribution` carries a law along a map, adding
each class's probabilities once.

:func:`star_lift` maps a family's one-cut chain into ``models.star_chain``.
The lifts of Ccheck, B and D lump the kernels; those of C and Bcheck carry
only the stationary law, their moves having a constant multiple of the
starred chain's probabilities (a time change).
"""
from __future__ import annotations

from bisect import bisect_right
from math import lcm
from typing import Callable

from .errors import InvalidCounts
from .markov import Dist, Kernel
from .models import STAR, star_rates
from .ratio import exact_sum
from .weyl import WeylKind


def cut_coloring(word: tuple, cuts: tuple) -> tuple:
    """Colour each letter x as sign(x) * #{c in cuts : c <= |x|}; the cuts are increasing.

    It maps the multispecies chain onto the cut chain with the same cuts.
    """
    return tuple(bisect_right(cuts, x) if x >= 0 else -bisect_right(cuts, -x) for x in word)


def star_lift(word: tuple, kind: WeylKind) -> tuple:
    """Lift a word of the family's one-cut chain into the family's starred chain.

    The shape follows ``models.STAR_RATES``: an end whose starred rate is
    zero gains a fixed star site, and at an end with both rates nonzero a
    border +-1 collapses to the star.  D needs rank 3 (InvalidRank).
    """
    if len(word) != kind.n:
        raise InvalidCounts(f"a {kind.family}{kind.n} word has {kind.n} sites, got {len(word)}")
    rates = star_rates(kind)
    lift = list(word)
    for end, star_rate in ((0, rates.alpha_star), (-1, rates.beta_star)):
        if star_rate and lift[end] in (1, -1):
            lift[end] = STAR
    return (STAR,) * (rates.alpha_star == 0) + tuple(lift) + (STAR,) * (rates.beta_star == 0)


def verify_lumping(big: Kernel, state_map: Callable, small: Kernel) -> bool:
    """Whether the map carries the big kernel onto the small one, exactly.

    The images must be exactly the small chain's states, and every big
    state's row, aggregated over image states, must equal the small
    kernel's row at its image.  Each big state is mapped once, to the small
    chain's index of its image; each row's integer numerators are summed
    per image index and compared with the small chain's row over the lcm
    of the two denominators.
    """
    images = [state_map(s) for s in big.states]
    if set(images) != set(small.states):
        return False
    pos = [small.index[u] for u in images]
    big_scale, small_scale = (lcm(big.den, small.den) // d for d in (big.den, small.den))
    for i, row in enumerate(big.rows):
        agg: dict[int, int] = {}
        for j, a in row.items():
            agg[pos[j]] = agg.get(pos[j], 0) + a
        want = small.rows[pos[i]]
        if len(agg) != len(want) or any(a * big_scale != want.get(u, 0) * small_scale
                                         for u, a in agg.items()):
            return False
    return True


def project_distribution(dist: Dist, state_map: Callable) -> Dist:
    """Class-wise sums of an exact distribution under a state map.

    Each class's probabilities are added once, by ``ratio.exact_sum``; the
    classes keep the order in which their first states come in ``dist``.
    """
    classes: dict = {}
    for s, p in dist.items():
        classes.setdefault(state_map(s), []).append(p)
    return Dist({u: exact_sum(ps) for u, ps in classes.items()})
