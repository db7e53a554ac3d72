"""Exact rational arithmetic helpers.

All probabilistic computations in this package are exact.  The rational
type R is fractions.Fraction from the standard library.  Adding Fractions
one at a time costs a gcd per addition, so long sums go through
:func:`exact_sum`, which adds integer numerators per denominator and builds
one Fraction at the end, as do sums of inverse rate powers
(:func:`inverse_power_sum`); the stationary solver does its heavy arithmetic
in floats, or in `decimal` at a growing precision when the float pass
fails, and builds Fractions only for the law it certifies (see
weyltasep.markov).  So no faster rational type is needed.
"""
from __future__ import annotations

from fractions import Fraction as R
from math import lcm, prod

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


def inverse_powers(exponent_vectors, rates) -> tuple[dict, int]:
    """(nums, L): prod r_k^(-e_k) = nums[e] / L for each exponent vector e, L one integer.

    With r_k = p_k/q_k and t_k the largest exponent any vector puts on r_k,
    L = prod p_k^t_k and nums[e] = prod q_k^e_k p_k^(t_k - e_k).  A zero
    rate under a positive exponent raises ZeroDivisionError.
    """
    vectors = list(exponent_vectors)
    tops = [max(col) for col in zip(*vectors)] if vectors else [0] * len(rates)
    den = prod(r.numerator ** t for r, t in zip(rates, tops))
    if den == 0:
        raise ZeroDivisionError("a zero rate to a negative power")
    factors = [[r.denominator**e * r.numerator ** (t - e) for e in range(t + 1)]
               for r, t in zip(rates, tops)]
    return {v: prod(f[e] for f, e in zip(factors, v)) for v in vectors}, den


def inverse_power_sum(terms, rates) -> R:
    """Sum of m * prod r_k^(-e_k) over the (e, m) terms: integers, one Fraction at the end."""
    terms = list(terms)
    nums, den = inverse_powers((e for e, _ in terms), rates)
    return R(sum(m * nums[e] for e, m in terms), den)


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
