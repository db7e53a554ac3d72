"""Projections between chains and the exact test that they stay Markov.

A state map sends the big chain's states onto the small chain's states; it
is a lumping when each aggregated row depends only on the image state.
:func:`verify_lumping` checks this together with agreement against the
small kernel, exactly, row by row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidCounts
from .markov import Dist, Kernel
from .models import STAR
from .ratio import ZERO


def k_coloring(word: tuple, k: int) -> tuple:
    """Collapse species to {-1, 0, 1}: at least k -> 1, at most -k -> -1."""
    n = len(word)
    if not 1 <= k <= n:
        raise InvalidCounts(f"need 1 <= k <= {n}")
    return tuple(1 if x >= k else -1 if x <= -k else 0 for x in word)


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


def _as_map(state_map, states) -> dict:
    if callable(state_map):
        return {s: state_map(s) for s in states}
    return dict(state_map)


def verify_lumping(big: Kernel, state_map, small: Kernel) -> LumpReport:
    """Exact check that the map carries the big kernel onto the small one.

    Every big state's row, aggregated over image states, must equal the
    small kernel's row at its image.  Violations are collected, not raised.
    """
    mapping = _as_map(state_map, big.states)
    violations = []
    missing = [s for s in big.states if s not in mapping]
    if missing:
        violations.append({"kind": "unmapped-states", "count": len(missing)})
        return LumpReport(False, violations)
    images = set(mapping.values())
    if images != set(small.states):
        violations.append(
            {
                "kind": "image-mismatch",
                "extra": sorted(map(repr, images - set(small.states))),
                "missing": sorted(map(repr, set(small.states) - images)),
            }
        )
        return LumpReport(False, violations)
    for s in big.states:
        agg: dict = {}
        for t, p in big.row(s).items():
            u = mapping[t]
            agg[u] = agg.get(u, ZERO) + p
        expected = small.row(mapping[s])
        keys = set(agg) | set(expected)
        for u in keys:
            if agg.get(u, ZERO) != expected.get(u, ZERO):
                violations.append(
                    {
                        "kind": "row-mismatch",
                        "state": repr(s),
                        "image": repr(mapping[s]),
                        "target": repr(u),
                        "aggregated": str(agg.get(u, ZERO)),
                        "small": str(expected.get(u, ZERO)),
                    }
                )
    return LumpReport(not violations, violations)


def project_distribution(dist: Dist, state_map) -> Dist:
    """Class-wise sums of an exact distribution under a state map."""
    mapping: Callable = state_map if callable(state_map) else state_map.__getitem__
    probs: dict = {}
    for s, p in dist.items():
        u = mapping(s)
        probs[u] = probs.get(u, ZERO) + p
    return Dist(probs)
