"""Exact rational arithmetic helpers.

All probabilistic computations in this package are exact.  The rational
type R is fractions.Fraction from the standard library.  Adding Fractions
one at a time costs a gcd per addition, so long sums go through
:func:`exact_sum`, which adds integer numerators per denominator and builds
one Fraction at the end; the stationary solver does its heavy arithmetic
in floats, or in `decimal` at a growing precision when the float pass
fails, and builds Fractions only for the law it certifies (see
weyltasep.markov).  So no faster rational type is needed.
"""
from __future__ import annotations

from fractions import Fraction as R
from math import lcm

ZERO = R(0)
ONE = R(1)


def exact_sum(values) -> R:
    """The exact sum of rationals (Fractions or ints).

    Numerators are added as integers, one running total per distinct
    denominator; the totals are brought to the lcm of those denominators
    and one Fraction is built at the end.
    """
    by_den: dict[int, int] = {}
    for x in values:
        den = x.denominator
        by_den[den] = by_den.get(den, 0) + x.numerator
    common = lcm(*by_den)
    return R(sum(num * (common // den) for den, num in by_den.items()), common)


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
