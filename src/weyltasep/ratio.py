"""Exact rational arithmetic helpers.

All probabilistic computations in this package are exact.  The rational
type R is fractions.Fraction from the standard library; the stationary
solver does its heavy arithmetic on machine-word residues instead
(see weyltasep.markov), so no faster rational type is needed.
"""
from __future__ import annotations

from fractions import Fraction as R

ZERO = R(0)
ONE = R(1)


def parse_ratio(text: str):
    """Parse 'p/q' or a bare integer into an exact rational."""
    s = text.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return R(int(p), int(q))
    return R(int(s))


def fmt_ratio(x) -> str:
    """Render a rational as 'p/q' in lowest terms, or a bare integer."""
    x = R(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"
