"""Root systems and signed permutations for the classical families B, C, D.

Elements are kept in window notation: ``w = (w_1, ..., w_n)`` means
``w(i) = w_i``, with ``w(-i) = -w_i``.  The linear action on R^n follows
the convention ``w . e_i = e_{w^{-1}(i)}`` where ``e_{-i} = -e_i``; in
coordinates ``(w . v)_j = sign(w_j) * v_{|w_j|}``.

Families ``Bcheck`` and ``Ccheck`` share the root systems of B and C; they
differ only in their step weights (dual Kac labels).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch, InvalidRank

FAMILIES = ("B", "C", "Bcheck", "Ccheck", "D")

Window = tuple[int, ...]
Vector = tuple


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


@dataclass(frozen=True)
class RootSystem:
    positive_roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    theta: Vector


@dataclass(frozen=True)
class KacWeights:
    weights: tuple[int, ...]  # a_0 .. a_n
    total: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.weights))


def _e(i: int, n: int, c: int = 1) -> Vector:
    v = [0] * n
    v[i - 1] = c
    return tuple(v)


def _e2(i: int, j: int, n: int, ci: int, cj: int) -> Vector:
    v = [0] * n
    v[i - 1] = ci
    v[j - 1] = cj
    return tuple(v)


@lru_cache(maxsize=None)
def root_data(kind: WeylKind) -> RootSystem:
    """Positive roots, simple roots and highest root of the finite system."""
    n = kind.n
    fam = kind.root_family
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    pos: list[Vector] = []
    if fam == "B":
        pos += [_e(i, n) for i in range(1, n + 1)]
    elif fam == "C":
        pos += [_e(i, n, 2) for i in range(1, n + 1)]
    pos += [_e2(i, j, n, -1, 1) for i, j in pairs]
    pos += [_e2(i, j, n, 1, 1) for i, j in pairs]
    if fam == "B":
        simple = (_e(1, n),) + tuple(_e2(i, i + 1, n, -1, 1) for i in range(1, n))
        theta = _e2(n - 1, n, n, 1, 1) if n >= 2 else _e(1, n)
    elif fam == "C":
        simple = (_e(1, n, 2),) + tuple(_e2(i, i + 1, n, -1, 1) for i in range(1, n))
        theta = _e(n, n, 2)
    else:  # D
        simple = (_e2(1, 2, n, 1, 1),) + tuple(
            _e2(i, i + 1, n, -1, 1) for i in range(1, n)
        )
        theta = _e2(n - 1, n, n, 1, 1)
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


def identity_window(n: int) -> Window:
    return tuple(range(1, n + 1))


def act(w: Window, v: Sequence) -> Vector:
    """Linear action of w on a vector: (w.v)_j = sign(w_j) v_{|w_j|}."""
    if len(v) != len(w):
        raise DimensionMismatch(f"vector length {len(v)} != rank {len(w)}")
    return tuple(v[a - 1] if a > 0 else -v[-a - 1] for a in w)


def apply_generator(w: Window, g: int, kind: WeylKind) -> Window:
    """Apply generator g (0..n, where n means the highest-root reflection).

    Generators act on window positions: s_i swaps entries i, i+1; s_0 is the
    family's first-site move; generator n acts on the last entries.
    """
    n = len(w)
    if not 0 <= g <= n:
        raise InvalidRank(f"generator {g} outside 0..{n}")
    fam = kind.root_family
    lst = list(w)
    if 1 <= g <= n - 1:
        lst[g - 1], lst[g] = lst[g], lst[g - 1]
    elif g == 0:
        if fam == "D":
            lst[0], lst[1] = -lst[1], -lst[0]
        else:
            lst[0] = -lst[0]
    else:  # g == n
        if fam == "C" or n == 1:
            lst[-1] = -lst[-1]
        else:
            lst[-2], lst[-1] = -lst[-1], -lst[-2]
    return tuple(lst)


@lru_cache(maxsize=None)
def _positive_root_set(kind: WeylKind) -> frozenset:
    return frozenset(root_data(kind).positive_roots)


def length(w: Window, kind: WeylKind) -> int:
    """Number of positive roots sent to negative roots by the action of w."""
    pos = _positive_root_set(kind)
    return sum(1 for alpha in pos if act(w, alpha) not in pos)


@lru_cache(maxsize=None)
def alcove_walls(kind: WeylKind) -> tuple:
    """Normals of the fundamental alcove's walls as two-term pairings.

    Wall g (0..n-1) is the simple root alpha_g and wall n is -theta, so the
    alcove lies on the positive side of every wall.  Each entry is
    (i0, c0, i1, c1) with <wall_g, v> = c0*v[i0] + c1*v[i1]; a one-term
    wall pads with (0, 0).
    """
    rs = root_data(kind)
    walls = []
    for alpha in rs.simple_roots + (tuple(-c for c in rs.theta),):
        terms = [(i, c) for i, c in enumerate(alpha) if c] + [(0, 0)]
        walls.append(terms[0] + terms[1])
    return tuple(walls)


def theta_raises(w: Window, kind: WeylKind) -> bool:
    """Whether applying the highest-root generator increases the length.

    That is <theta, w> > 0 on the window entries, the g = n case of the
    wall test that drives the exclusion chains.  Agreement with the
    length-based definition is a test.
    """
    i0, c0, i1, c1 = alcove_walls(kind)[kind.n]
    return c0 * w[i0] + c1 * w[i1] < 0


def inverse_act_theta(w: Window, kind: WeylKind) -> Vector:
    """w^{-1} applied to the highest root, read off the window entries."""
    i0, c0, i1, c1 = alcove_walls(kind)[kind.n]  # the terms of -theta
    v = [0] * len(w)
    for i, c in ((i0, c0), (i1, c1)):
        v[abs(w[i]) - 1] -= c if w[i] > 0 else -c
    return tuple(v)
