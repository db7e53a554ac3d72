import math
import random
from itertools import combinations, product

import pytest

import oracles
import weyltasep.closedform as cf
from weyltasep.errors import InvalidRank, RangeError
from weyltasep.markov import Dist, exact_stationary
from weyltasep.lumping import star_lift
from weyltasep.models import build_cut_chain, build_semipermeable, star_chain
from weyltasep.ratio import R, ZERO
from weyltasep.weyl import WeylKind


def test_ballot_values():
    assert cf.ballot(4, 3) == 14
    assert all(cf.ballot(n, 0) == 1 for n in range(8))
    assert cf.catalan(3) == 5
    assert cf.ballot(-1, 0) == 1
    with pytest.raises(RangeError):
        cf.ballot(3, 4)
    rows = [[cf.ballot(n, k) for k in range(n + 1)] for n in range(5)]
    assert rows[4] == [1, 4, 9, 14, 14]
    for n in range(1, 11):
        for k in range(1, n):
            assert cf.ballot(n, k) == cf.ballot(n - 1, k) + cf.ballot(n, k - 1)


def test_v_poly_displayed_example():
    for a, b in ((R(2, 5), R(3, 7)), (R(1, 3), R(1, 2))):
        expected = 1 / a**2 + 1 / b**2 + 1 / (a * b) + 1 / a + 1 / b
        assert cf.v_poly(2, a, b) == expected
    assert cf.v_poly(0, R(1, 2), R(2, 3)) == 1
    assert cf.v_poly(2, 1, 1) == 5 == cf.catalan(3)


def test_m_poly_values():
    assert cf.m_poly(2, R(1, 2)) == 10 == math.comb(5, 2)
    for k in range(13):
        assert cf.m_poly(k, R(1, 2)) == math.comb(2 * k + 1, k)
        assert cf.v_poly(k, R(1, 2), R(1, 2)) == 4**k
        assert cf.m_poly(k, R(1)) == cf.v_poly(k, 1, 1) == cf.catalan(k + 1)


@pytest.mark.parametrize("k", range(0, 8))
def test_motzkin_enumeration_matches_double_sum(k):
    for a, b in ((R(2, 3), R(5, 7)), (R(1, 2), R(1, 2)), (R(7, 5), R(3, 11))):
        assert cf.enumerate_bicolored_motzkin(k, a, b) == cf.v_poly(k, a, b)
    assert cf.enumerate_bicolored_motzkin(2, 1, 1) == 5


@pytest.mark.parametrize("k", range(0, 8))
def test_motzkin_histogram_matches_per_path_products(k):
    for a, b in ((R(2, 3), R(5, 7)), (R(7, 5), R(3, 11)), (R(1), R(1, 4))):
        assert cf.enumerate_bicolored_motzkin(k, a, b) == oracles.bicolored_motzkin_sum(k, a, b)


@pytest.mark.parametrize("k", range(0, 9))
def test_motzkin_transfer_matches_word_walk(k):
    assert cf._motzkin_exponents(k) == oracles.motzkin_exponents(k)


def test_ballot_sum_identities():
    for a in range(11):
        for b in range(a + 1):
            for j in range(b + 1):
                lhs = sum(
                    cf.ballot0(a - i, b - i) * cf.ballot0(i, i - j)
                    for i in range(j, b + 1)
                )
                assert lhs == cf.ballot(a + 1, b - j)
    for n in range(1, 11):
        for b in range(n + 1):
            for d in range(b + 1):
                for a in range(b - d + 1):
                    lhs = sum(
                        cf.ballot0(i + d, i)
                        * cf.comb0(2 * n - 2 * i - d - a, n - b - i)
                        for i in range(n - b + 1)
                    )
                    assert lhs == cf.comb0(2 * n - a + 1, n - b)


def test_partition_semipermeable():
    assert cf.z_semiperm(3, 1, 1, 1) == 14 == cf.ballot(5, 2)
    for n in range(1, 8):
        for n0 in range(n + 1):
            assert cf.z_semiperm(n, n0, 1, 1) == cf.ballot(n + n0 + 1, n - n0)
    assert cf.z_semiperm(4, 4, R(1, 3), R(2, 7)) == 1
    for n0 in (-1, 4):  # as z_b and z_d: no configuration has more zeros than sites
        with pytest.raises(RangeError):
            cf.z_semiperm(3, n0, R(1, 2), R(1, 3))
    eps = R(1, 10**6)
    z0, zp, zm = (cf.z_semiperm(4, 1, a, 1) for a in (R(1), 1 + eps, 1 - eps))
    assert abs(float(zp) - float(z0)) < 1e-3 and abs(float(zm) - float(z0)) < 1e-3


@pytest.mark.parametrize("z,at_rank_2", [(cf.z_b, math.comb(4, 2)), (cf.z_d, 4**2)], ids=["B", "D"])
def test_two_species_partition_needs_rank_two(z, at_rank_2):
    # the closed forms start at rank 2 (the D group does too); the rank is checked before n0
    for n in (1, 0, -2):
        with pytest.raises(InvalidRank, match=f"needs rank n >= 2, got {n}$"):
            z(n, 0)
    assert z(2, 0) == at_rank_2


def test_semipermeable_partition_needs_rank_one():
    # the rank is checked before n0, as in z_b and z_d
    for n, n0 in ((0, 0), (-1, 0), (0, 3)):
        with pytest.raises(InvalidRank, match=f"needs rank n >= 1, got {n}$"):
            cf.z_semiperm(n, n0, 1, 1)
    # the densities still read Z = 1 off the empty stretch
    assert cf._z_semiperm(0, 0, 1, 1) == 1 == cf.ballot(1, 0)
    assert cf.semiperm_density(1, 0, 1, 1, 1) == R(1, 2)


def test_semipermeable_density_formula():
    assert cf.semiperm_density(4, 1, 4, 1, 1) == R(7, 24)
    assert cf.semiperm_density(3, 3, 2, 1, 1) == 0
    for n in range(2, 6):
        for n0 in range(n + 1):
            val = cf.semiperm_density(n, n0, n, 1, 1)
            assert val == R((n - n0) * (n + n0 + 2), 2 * n * (2 * n + 1))


def test_semipermeable_density_vs_exact_kernel():
    rng = random.Random(11)
    for n, n0 in ((2, 0), (3, 1), (3, 0), (4, 2)):
        a = R(rng.randint(1, 9), rng.randint(10, 14))
        b = R(rng.randint(1, 9), rng.randint(10, 14))
        pi = exact_stationary(build_semipermeable(n, n0, a, b))
        for j in range(1, n + 1):
            exact = sum((p for w, p in pi.items() if w[j - 1] == 1), ZERO)
            assert exact == cf.semiperm_density(n, n0, j, a, b)


def test_ccheck_last_density():
    assert cf.ccheck_last_density(4, 2) == R(5, 72)
    assert cf.ccheck_last_density(2, 2) == R(5, 20)
    for n in (2, 3):
        dens = oracles.last_site_density("Ccheck", n)
        total = ZERO
        for i in range(1, n + 1):
            val = cf.ccheck_last_density(n, i)
            assert val == R(2 * i + 1, 2 * n * (2 * n + 1)) == dens[i]
            total += val
        negatives = sum((dens[-i] for i in range(1, n + 1)), ZERO)
        assert total + negatives == 1


def test_b_partition_and_pair_table():
    assert cf.z_b(4, 1) == 56 == math.comb(8, 3)
    tab = cf.b_pair_table(3, 2)
    assert tab[(0, 0)] == R(2, 6)
    for n, n0 in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 0), (4, 4)):
        tab = cf.b_pair_table(n, n0)
        assert tab[(1, -1)] == R(2 * cf.comb0(2 * n - 3, n - n0 - 2), cf.z_b(n, n0))
        pi = exact_stationary(build_cut_chain(WeylKind("B", n), (n0 + 1,)))
        exact = {}
        for w, p in pi.items():
            exact[(w[-2], w[-1])] = exact.get((w[-2], w[-1]), ZERO) + p
        for ij, p in tab.items():
            assert exact.get(ij, ZERO) == p
        # single-site densities from the margins
        plus = sum((p for (a, b), p in tab.items() if b == 1), ZERO)
        assert plus == R(n - n0, 2 * n)


def test_d_partition_and_pair_table():
    assert cf.z_d(3, 1) == 16
    assert cf.z_d(4, 2) == 29
    assert cf.z_d(5, 0) == 4**5 and cf.z_d(5, 1) == 4**4
    for n, n0 in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        tab = cf.d_pair_table(n, n0)
        pi = exact_stationary(build_cut_chain(WeylKind("D", n), (n0 + 1,)))
        exact = {}
        for w, p in pi.items():
            exact[(w[-2], w[-1])] = exact.get((w[-2], w[-1]), ZERO) + p
        for ij, p in tab.items():
            assert exact.get(ij, ZERO) == p
    with pytest.raises(RangeError):
        cf.d_pair_table(4, 0)
    # At rank 2 the cells would contradict the exact D2 chain.
    with pytest.raises(RangeError, match="needs n >= 3"):
        cf.d_pair_table(2, 1)


@pytest.mark.parametrize("n", range(3, 7))
def test_zero_free_d_chain_is_uniform(n):
    # The pair table at zero count 0 that the D hook sums read.
    pi = exact_stationary(build_cut_chain(WeylKind("D", n), (1,)))
    assert len(pi) == 2 ** (n - 1) and set(pi.values()) == {R(1, 2 ** (n - 1))}
    pairs = {}
    for w, p in pi.items():
        pairs[w[-2:]] = pairs.get(w[-2:], ZERO) + p
    assert pairs == {pair: R(1, 4) for pair in product((-1, 1), repeat=2)}


def _lcd(law) -> int:
    """The least common denominator of an exact law."""
    return math.lcm(*(p.denominator for p in law.values()))


def test_partition_functions_are_the_one_cut_law_denominators():
    # z_d's other normalizations are the ones its docstring states
    for n in range(2, 6):
        for n0 in range(n):
            assert cf.z_b(n, n0) == _lcd(cf._cut_law(WeylKind("B", n), (n0 + 1,)))
            lcd_d = _lcd(cf._cut_law(WeylKind("D", n), (n0 + 1,)))
            if n0 == 0:
                assert cf.z_d(n, 0) == 2 ** (n + 1) * lcd_d
            elif n == 2:
                assert cf.z_d(2, 1) == 2 * lcd_d
            else:
                assert cf.z_d(n, n0) == lcd_d


def _two_cut_denominators_divide_the_one_cut_products(family, n):
    """The part prime to 6 of each two-cut law's L divides Z_a * Z_b, Z_i the L of (i,)."""
    kind = WeylKind(family, n)
    z = {i: _lcd(cf._cut_law(kind, (i,))) for i in range(1, n + 1)}
    for a, b in combinations(range(1, n + 1), 2):
        rest = _lcd(cf._cut_law(kind, (a, b)))
        for p in (2, 3):
            while rest % p == 0:
                rest //= p
        assert z[a] * z[b] % rest == 0, (a, b)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", ["B", "C", "Bcheck", "Ccheck", "D"])
def test_two_cut_denominators_divide_the_one_cut_products(family, n):
    _two_cut_denominators_divide_the_one_cut_products(family, n)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["B", "C", "Bcheck", "Ccheck", "D"])
def test_two_cut_denominators_divide_the_one_cut_products_rank6(family):
    _two_cut_denominators_divide_the_one_cut_products(family, 6)


def test_partition_generating_series():
    for n0 in (2, 3):
        series = cf.z_d_generating_series(n0, 12)
        for n in range(n0, 13):
            assert series[n] == cf.z_d(n, n0)


def test_hook_sums_closed_forms():
    assert cf.multi_sums(WeylKind("B", 4), 2).col == R(1, 8)
    assert cf.multi_sums(WeylKind("B", 4), 1).hd == R(3, 28) == R(24, 224)
    assert cf.multi_sums(WeylKind("B", 4), -1).row == R(3, 56)
    for fam, n in (("B", 3), ("D", 3), ("D", 4)):
        for i in list(range(-n, 0)) + list(range(1, n + 1)):
            closed = cf.multi_sums(WeylKind(fam, n), i)
            exact = oracles.hook_sums_exact(fam, n, i)
            assert (closed.row, closed.col) == (exact.row, exact.col)
            if i > 0:
                assert (closed.hd, closed.hu) == (exact.hd, exact.hu)


def test_b_hook_sums_are_pair_table_differences():
    # Colouring the letters below a cut as 0 lumps the B chain onto the
    # two-species chain with that many zeros; species i sits between the
    # zero counts |i| - 1 and |i|.
    for n in range(2, 13):
        for i in [*range(-n, 0), *range(1, n + 1)]:
            upper, lower = cf.b_pair_table(n, abs(i) - 1), cf.b_pair_table(n, abs(i))

            def step(cells):
                return sum((upper.get(c, ZERO) - lower.get(c, ZERO) for c in cells), ZERO)

            sums, sign = cf.multi_sums(WeylKind("B", n), i), 1 if i > 0 else -1
            assert sums.col == step([(x, -1) for x in (-1, 0, 1)]), (n, i)
            assert sums.row == step([(sign, y) for y in (-1, 0, 1)]), (n, i)
            if i > 0:
                assert (sums.hd, sums.hu) == (step([(1, 1)]), step([(-1, 1)])), (n, i)


def test_first_site_densities():
    assert cf.b_first_site(4, -2) == R(3, 56)
    assert cf.b_first_site(3, 1) == R(11, 30)
    for n in (2, 3):
        total = sum(
            (cf.b_first_site(n, k) for k in range(-n, n + 1) if k != 0), ZERO
        )
        assert total == 1
        exact = oracles.first_site_density("B", n)
        for k in range(-n, n + 1):
            if k:
                assert exact.get(k, ZERO) == cf.b_first_site(n, k)


def test_last_site_uniformity():
    for n in (2, 3):
        dens = oracles.last_site_density("B", n)
        assert all(dens[k] == R(1, 2 * n) for k in range(-n, n + 1) if k != 0)


DIRECTION_CASES = [
    ("Ccheck", 3, (3, 5, 7)),
    ("B", 3, (1, 3, 5)),
    ("D", 3, (0, 1, 2)),
]


@pytest.mark.parametrize("family,n,pattern", DIRECTION_CASES)
def test_direction_exact_vs_closed(family, n, pattern):
    kind = WeylKind(family, n)
    lam = cf.limdir_exact_lam(kind)
    closed = cf.limdir_closed(kind, n)
    assert lam.proportional_to(closed)
    assert lam.proportional_to(cf.DirectionVector(tuple(R(c) for c in pattern)))
    if family in ("B", "D"):
        assert lam.coeffs == closed.coeffs


# lam / closed from rank 2 on: theta is 2e_n for C and Ccheck
LAM_RATIO = {"B": 1, "C": 2, "Bcheck": 1, "Ccheck": 2, "D": 1}


def _check_lam_against_closed(family, ranks):
    for n in ranks:
        kind = WeylKind(family, n)
        lam, closed = cf.limdir_exact_lam(kind), cf.limdir_closed(kind, n)
        assert lam.proportional_to(closed), n
        if n >= 2:
            assert lam.coeffs == tuple(LAM_RATIO[family] * c for c in closed.coeffs), n


@pytest.mark.parametrize("family", sorted(LAM_RATIO))
def test_lam_direction_is_proportional_to_closed_form(family):
    _check_lam_against_closed(family, range(2 if family == "D" else 1, 8))


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(LAM_RATIO))
def test_lam_direction_is_proportional_to_closed_form_rank8(family):
    _check_lam_against_closed(family, [8])


# Each full chain is solved once per test run (oracles.full_chain_law).
FULL_CHAIN_CASES = [(f, n) for f in sorted(LAM_RATIO)
                    for n in range(2 if f == "D" else 1, 5)] + [("D", 5)]


@pytest.mark.parametrize("family,n", FULL_CHAIN_CASES)
def test_lam_direction_equals_the_full_chain_sum(family, n):
    # the one-cut tails against the highest-root sum over the full chain's law
    kind = WeylKind(family, n)
    assert cf.limdir_exact_lam(kind) == oracles.full_chain_direction(family, n)


def test_lam_direction_equals_the_full_chain_sum_b5():
    assert cf.limdir_exact_lam(WeylKind("B", 5)) == oracles.full_chain_direction("B", 5)


@pytest.mark.parametrize("family,n", [(f, n) for f, n in FULL_CHAIN_CASES if n >= 2])
def test_pair_correlations_equal_the_full_chain_tally(family, n):
    # inclusion-exclusion over the two-cut chains against the full chain's final pairs
    assert cf.pair_correlations(WeylKind(family, n)) == oracles.full_chain_pairs(family, n)


def test_pair_correlations_equal_the_full_chain_tally_b5():
    assert cf.pair_correlations(WeylKind("B", 5)) == oracles.full_chain_pairs("B", 5)


@pytest.mark.parametrize("family", sorted(LAM_RATIO))
def test_lifted_law_equals_the_eliminated_one_cut_law(family):
    # the starred product form read back onto the one-cut chain, every n0
    for n in range(3 if family == "D" else 1, 6):
        kind = WeylKind(family, n)
        for n0 in range(n + 1):
            lifted = Dist(cf._lifted_law(kind, n0))
            assert lifted == exact_stationary(build_cut_chain(kind, (n0 + 1,))), (n, n0)


def test_d_below_rank_3_has_no_starred_chain():
    # both of D2's sites are ends, so its starred chain would have no moves
    d2 = WeylKind("D", 2)
    rank = "the D starred chain needs rank n >= 3, got 2"
    for n0 in range(3):
        for refuse in (cf._lifted_law, star_chain):
            with pytest.raises(InvalidRank, match=rank):
                refuse(d2, n0)
    with pytest.raises(InvalidRank, match=rank):
        star_lift((1, 0), d2)


def test_direction_closed_formulas():
    assert cf.limdir_closed(WeylKind("B", 4), 4).coeffs == tuple(
        R(2 * k - 1, 28) for k in range(1, 5)
    )
    assert cf.limdir_closed(WeylKind("Ccheck", 4), 4).coeffs == tuple(
        R(2 * i + 1, 72) for i in range(1, 5)
    )
    assert cf.limdir_closed(WeylKind("D", 2), 2).coeffs == (R(1, 2), R(1, 2))
    # the final coefficient of the D family is 1/n
    for n in range(3, 7):
        assert cf.limdir_closed(WeylKind("D", n), n).coeffs[-1] == R(1, n)


def test_direction_family_coincidence():
    # dropping the leading zero, the D direction at rank n+1 matches C at n
    for n in range(1, 6):
        d = cf.limdir_closed(WeylKind("D", n + 1), n + 1).coeffs
        c = cf.limdir_closed(WeylKind("C", n), n).coeffs
        assert d[0] == 0 or n + 1 == 2
        assert d[1:] == c


def test_conjectured_pair_values():
    assert cf.conjecture_b_value(4, -4, -2).value == R(1, 64)
    assert cf.conjecture_b_value(4, -4, -2).case == 1
    assert cf.conjecture_b_value(4, -1, -4).value == R(3, 224)
    assert cf.conjecture_b_value(4, -1, -4).case == 3
    assert cf.conjecture_b_value(4, 4, -1).value == R(3, 112)
    assert cf.conjecture_b_value(4, 4, -1).case == 5
    assert cf.conjecture_b_value(4, 1, -2).value == R(1, 32)
    assert cf.conjecture_b_value(4, 1, -2).case == 4
    with pytest.raises(RangeError):
        cf.conjecture_b_value(4, -2, -2)
    with pytest.raises(RangeError):
        cf.conjecture_b_value(4, 1, 2)


def test_conjectured_pairs_match_exact_rank3():
    corr = cf.pair_correlations(WeylKind("B", 3))
    for i, j, cv in cf.conjecture_b_pairs(3):
        assert corr.get((i, j), ZERO) == cv.value
