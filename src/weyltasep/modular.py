"""Word-size primes, Chinese remaindering and rational reconstruction.

When the exact stationary solver cannot read a law off its float
elimination, it works over Z/p for primes just below 2**61, combines the
images by the Chinese remainder theorem and recovers each rational from its
residue (Wang's algorithm, as in Monagan 2004).  Nothing here knows about
Markov chains.
"""
from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator, Sequence

# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError("is_prime is deterministic only below 3.3e24")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int = 1 << 61) -> Iterator[int]:
    """The primes below `bound`, largest first, generated on demand."""
    n = bound - 1
    while n >= 2:
        if is_prime(n):
            yield n
        n -= 1


def crt_extend(xs: Sequence[int], modulus: int, ys: Sequence[int], p: int) -> list[int]:
    """Residues mod modulus*p that are xs mod `modulus` and ys mod the prime p."""
    inv = pow(modulus % p, -1, p)
    return [x + modulus * ((y - x) * inv % p) for x, y in zip(xs, ys)]


def rational_reconstruct(a: int, m: int) -> tuple[int, int] | None:
    """The n/d with n = d*a (mod m), |n|, d <= sqrt(m/2) and gcd(n, d) = 1.

    Returns (n, d) with d > 0, or None when no such fraction exists.  When
    one exists it is unique, so a rational whose numerator and denominator
    are both at most sqrt(m/2) is recovered from its residue mod m.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1
