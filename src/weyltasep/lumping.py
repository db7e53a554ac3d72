"""Projections between chains and the exact test that they stay Markov.

A state map is a callable that sends the big chain's states onto the small
chain's states; it is a lumping when each aggregated row depends only on
the image state.  :func:`verify_lumping` checks this together with
agreement against the small kernel, exactly, row by row.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import lcm
from typing import Callable

from .errors import InvalidCounts
from .markov import Dist, Kernel
from .models import STAR
from .ratio import R, ZERO


def cut_coloring(word: tuple, cuts: tuple) -> tuple:
    """Colour each letter x as sign(x) * #{c in cuts : c <= |x|}; the cuts are increasing.

    It maps the multispecies chain onto the cut chain with the same cuts.
    """
    return tuple(bisect_right(cuts, x) if x >= 0 else -bisect_right(cuts, -x) for x in word)


def star_collapse(word: tuple, mode: str) -> tuple:
    """Identify border +-1 with the star symbol.

    ``last_site``: prepend a fixed *-site and star the final entry, embedding
    an n-site two-species word into an (n+1)-site starred word.
    ``both_ends``: star the first and last entries in place.
    """
    if mode == "last_site":
        return (STAR,) + word[:-1] + (STAR if word[-1] in (1, -1) else word[-1],)
    if mode == "both_ends":
        if len(word) < 2:
            raise InvalidCounts("both_ends needs at least 2 sites")
        first = STAR if word[0] in (1, -1) else word[0]
        last = STAR if word[-1] in (1, -1) else word[-1]
        return (first,) + word[1:-1] + (last,)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class LumpReport:
    passed: bool
    violations: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {"pass": self.passed, "violations": self.violations}


def verify_lumping(big: Kernel, state_map: Callable, small: Kernel) -> LumpReport:
    """Exact check that the map carries the big kernel onto the small one.

    Every big state's row, aggregated over image states, must equal the
    small kernel's row at its image.  Each big state is mapped once, to the
    small chain's index of its image; each row's integer numerators are
    summed per image index and compared with the small chain's row over
    the lcm of the two denominators.  Violations are collected, not raised.
    """
    images = [state_map(s) for s in big.states]
    image_set, small_set = set(images), set(small.states)
    if image_set != small_set:
        mismatch = {
            "kind": "image-mismatch",
            "extra": sorted(map(repr, image_set - small_set)),
            "missing": sorted(map(repr, small_set - image_set)),
        }
        return LumpReport(False, [mismatch])
    pos = [small.index[u] for u in images]
    big_scale, small_scale = (lcm(big.den, small.den) // d for d in (big.den, small.den))
    violations = []
    for i, row in enumerate(big.rows):
        agg: dict[int, int] = {}
        for j, a in row.items():
            agg[pos[j]] = agg.get(pos[j], 0) + a
        want = small.rows[pos[i]]
        if len(agg) == len(want) and all(a * big_scale == want.get(u, 0) * small_scale
                                         for u, a in agg.items()):
            continue
        # report by state, in the key order of the state-keyed rows
        agg = {small.states[u]: R(a, big.den) for u, a in agg.items()}
        expected = small.row(images[i])
        for u in set(agg) | set(expected):
            got, want = agg.get(u, ZERO), expected.get(u, ZERO)
            if got != want:
                violations.append(
                    {
                        "kind": "row-mismatch",
                        "state": repr(big.states[i]),
                        "image": repr(images[i]),
                        "target": repr(u),
                        "aggregated": str(got),
                        "small": str(want),
                    }
                )
    return LumpReport(not violations, violations)


def project_distribution(dist: Dist, state_map: Callable) -> Dist:
    """Class-wise sums of an exact distribution under a state map."""
    probs: dict = {}
    for s, p in dist.items():
        u = state_map(s)
        probs[u] = probs.get(u, ZERO) + p
    return Dist(probs)
