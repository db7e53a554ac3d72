from math import gcd

from hypothesis import given, strategies as st

from weyltasep.modular import crt_extend, is_prime, primes_below, rational_reconstruct

FIRST = (1 << 61) - 1  # a Mersenne prime


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2 up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(FIRST)


def test_primes_below_start_at_the_bound_and_descend():
    gen = primes_below()
    first, second, third = next(gen), next(gen), next(gen)
    assert first == FIRST
    assert first > second > third > (1 << 60)
    assert all(not is_prime(n) for n in range(third + 1, second))
    assert list(primes_below(20)) == [19, 17, 13, 11, 7, 5, 3, 2]


@given(st.integers(0, 1 << 29), st.integers(1, 1 << 29))
def test_rational_reconstruction_recovers_small_fractions(n, d):
    g = gcd(n, d)
    n, d = n // g, d // g
    assert rational_reconstruct(n * pow(d, -1, FIRST) % FIRST, FIRST) == (n, d)


def test_rational_reconstruction_exhaustive_mod_small_prime():
    m, bound = 1009, 22  # bound = isqrt(m // 2)
    found = {a: rational_reconstruct(a, m) for a in range(m)}
    for a, nd in found.items():
        if nd is not None:
            n, d = nd
            assert abs(n) <= bound and 0 < d <= bound and gcd(n, d) == 1
            assert (n - d * a) % m == 0
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            if gcd(n, d) == 1:
                assert found[n * pow(d, -1, m) % m] == (n, d)
    assert None in found.values()  # fewer small fractions than residues


@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=5))
def test_crt_extend_combines_two_primes(xs):
    p, q = FIRST, next(primes_below(FIRST))
    both = crt_extend([x % p for x in xs], p, [x % q for x in xs], q)
    assert both == [x % (p * q) for x in xs]
