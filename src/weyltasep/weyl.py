"""Root systems and signed permutations for the classical families B, C, D.

Elements are kept in window notation: ``w = (w_1, ..., w_n)`` means
``w(i) = w_i``, with ``w(-i) = -w_i``.  The linear action on R^n follows
the convention ``w . e_i = e_{w^{-1}(i)}`` where ``e_{-i} = -e_i``; in
coordinates ``(w . v)_j = sign(w_j) * v_{|w_j|}``.

Every root of these families is +-e_i, +-2e_i or +-e_i +- e_j, so a root is
kept as its two-term pairing (i0, c0, i1, c1): <alpha, v> = c0*v[i0] +
c1*v[i1], with 0-based indices, and a one-term root pads with (0, 0).
Every generator s_g (0..n) is the reflection in wall g of the fundamental
alcove (`alcove_walls`): one signed swap of window entries, read off the
wall's pairing by `reflection`.  Families ``Bcheck`` and ``Ccheck`` share
the root systems of B and C; they differ only in their step weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidRank

FAMILIES = ("B", "C", "Bcheck", "Ccheck", "D")

Window = tuple[int, ...]


@dataclass(frozen=True)
class WeylKind:
    """A classical family label together with a rank."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidRank(f"unknown family {self.family!r}")
        least = 2 if self.family == "D" else 1
        if self.n < least:
            raise InvalidRank(f"family {self.family} needs rank >= {least}")

    @property
    def root_family(self) -> str:
        """Underlying finite root system (checked families borrow B/C)."""
        return {"Bcheck": "B", "Ccheck": "C"}.get(self.family, self.family)


def check_rank(kind: WeylKind, n: int) -> None:
    """InvalidRank unless n is kind's rank, for the calls that take the rank twice."""
    if n != kind.n:
        raise InvalidRank(f"n = {n} is not the rank of {kind.family}{kind.n}")


@dataclass(frozen=True)
class RootSystem:
    """Positive roots, simple roots alpha_0..alpha_{n-1} and theta, as pairings."""

    positive_roots: tuple
    simple_roots: tuple
    theta: tuple


@dataclass(frozen=True)
class KacWeights:
    weights: tuple[int, ...]  # a_0 .. a_n
    total: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.weights))


@lru_cache(maxsize=None)
def root_data(kind: WeylKind) -> RootSystem:
    """Positive roots, simple roots and highest root of the finite system.

    B's short roots e_i are (i, 1, 0, 0) and C's long roots 2e_i are
    (i, 2, 0, 0); every family has e_j - e_i = (i, -1, j, 1) and
    e_i + e_j = (i, 1, j, 1) for i < j.
    """
    n = kind.n
    fam = kind.root_family
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    c = {"B": 1, "C": 2}.get(fam)  # D has no one-term root
    pos = [(i, c, 0, 0) for i in range(n)] if c else []
    pos += [(i, -1, j, 1) for i, j in pairs] + [(i, 1, j, 1) for i, j in pairs]
    first = (0, c, 0, 0) if c else (0, 1, 1, 1)
    simple = (first,) + tuple((i, -1, i + 1, 1) for i in range(n - 1))
    if fam == "C":
        theta = (n - 1, 2, 0, 0)
    else:
        theta = (n - 2, 1, n - 1, 1) if n >= 2 else (0, 1, 0, 0)
    return RootSystem(tuple(pos), simple, theta)


@lru_cache(maxsize=None)
def kac_weights(kind: WeylKind) -> KacWeights:
    """Step weights a_0..a_n for the affine walk of this family.

    B, C, D carry their Kac labels; Bcheck and Ccheck the dual labels.
    """
    n = kind.n
    a = [2] * (n + 1)
    fam = kind.family
    if fam == "Ccheck":
        a = [1] * (n + 1)
    elif fam == "B":
        a[n - 1] = a[n] = 1
    elif fam == "C":
        a[0] = a[n] = 1
    elif fam == "Bcheck":
        a[0] = a[n - 1] = a[n] = 1
    else:  # D
        a[0] = a[1] = a[n - 1] = a[n] = 1
    return KacWeights(tuple(a))


@lru_cache(maxsize=None)
def alcove_walls(kind: WeylKind) -> tuple:
    """Normals of the fundamental alcove's walls, as pairings.

    Wall g (0..n-1) is the simple root alpha_g and wall n is -theta, so the
    alcove lies on the positive side of every wall.
    """
    rs = root_data(kind)
    i0, c0, i1, c1 = rs.theta
    return rs.simple_roots + ((i0, -c0, i1, -c1),)


def reflection(wall) -> tuple:
    """The reflection in a wall pairing (i0, c0, i1, c1) as one signed swap (p, q, s).

    It maps window entries p, q to s times each other.  A one-term wall
    c0*e_{i0} negates entry i0: (i0, i0, -1).  A two-term wall swaps
    entries i0 and i1, keeping the signs when c0 == -c1 (a root e_j - e_i)
    and flipping both when c0 == c1 (e_i + e_j).
    """
    i0, c0, i1, c1 = wall
    if not c1:
        return i0, i0, -1
    return i0, i1, 1 if c0 == -c1 else -1


def reflect(w: Window, wall) -> Window:
    """The window w moved by the reflection in `wall`; for wall g of the alcove, w s_g."""
    p, q, s = reflection(wall)
    lst = list(w)
    lst[p], lst[q] = s * w[q], s * w[p]
    return tuple(lst)


def theta_raises(w: Window, kind: WeylKind) -> bool:
    """Whether applying the highest-root generator increases the length.

    That is <theta, w> > 0 on the window entries, the g = n case of the
    wall test that drives the exclusion chains.  Agreement with the
    length-based definition is a test.
    """
    i0, c0, i1, c1 = alcove_walls(kind)[kind.n]
    return c0 * w[i0] + c1 * w[i1] < 0


def inverse_act_theta(w: Window, kind: WeylKind) -> tuple:
    """w^{-1} applied to the highest root, read off the window entries."""
    i0, c0, i1, c1 = alcove_walls(kind)[kind.n]  # the terms of -theta
    v = [0] * len(w)
    for i, c in ((i0, c0), (i1, c1)):
        v[abs(w[i]) - 1] -= c if w[i] > 0 else -c
    return tuple(v)
