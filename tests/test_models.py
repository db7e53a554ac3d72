import pytest

from weyltasep import tworow
from weyltasep.errors import InvalidCounts, InvalidRates
from weyltasep.models import (
    DStarParams,
    build_cut_chain,
    build_dstar,
    build_multi,
    build_semipermeable,
    cut_states,
    dstar_states,
)
from weyltasep.ratio import R
from weyltasep.verify import PARAM_POINTS
from weyltasep.weyl import FAMILIES, WeylKind, kac_weights, theta_raises

from oracles import (
    branch_dstar_kernel,
    closed_classes,
    first_move_patterns_d,
    kernel_prob,
    kernel_row,
    reversal_bijection,
    table_multi_kernel,
    table_semipermeable_kernel,
    table_two_species_kernel,
    theta_move_patterns,
    tworow_kernel,
)

CCHECK = WeylKind("Ccheck", 1)
B = WeylKind("B", 2)
D = WeylKind("D", 2)


def test_state_space_sizes():
    assert len(cut_states(WeylKind("B", 2), (1, 2))) == 8
    assert len(cut_states(WeylKind("D", 3), (1, 2, 3))) == 24
    assert dstar_states(3, 1) == [
        (0, -1, "*"),
        (0, 1, "*"),
        ("*", -1, 0),
        ("*", 0, "*"),
        ("*", 1, 0),
    ]
    assert len(cut_states(WeylKind("B", 4), (3,))) == 6 * 4
    # two cuts: one zero, two letters of colour 1 and one of colour 2, each signed
    assert len(cut_states(WeylKind("C", 4), (2, 4))) == 12 * 8
    # a cut at n + 1 colours nothing; D without a zero keeps the even words
    assert cut_states(WeylKind("B", 3), (4,)) == [(0, 0, 0)]
    assert len(cut_states(WeylKind("D", 4), (1,))) == 8
    assert len(cut_states(WeylKind("D", 4), (1, 5))) == 8
    assert len(cut_states(WeylKind("D", 4), (2,))) == 4 * 8


@pytest.mark.parametrize("family", ["C", "Bcheck"])
def test_c_and_bcheck_cut_chains_have_one_closed_class(family):
    # from rank 1: the full chain and every one-cut chain
    for n in (1, 2, 3):
        for cuts in [tuple(range(1, n + 1))] + [(c,) for c in range(1, n + 2)]:
            ker = build_cut_chain(WeylKind(family, n), cuts)
            assert len(closed_classes(ker)) == 1, cuts


def test_multispecies_transition_probabilities():
    ker = build_multi(WeylKind("Ccheck", 2), 2)
    assert kernel_prob(ker, (2, 1), (1, 2)) == R(1, 3)
    ker = build_multi(WeylKind("B", 3), 3)
    assert kernel_prob(ker, (1, 3, 2), (1, -2, -3)) == R(1, 6)
    ker = build_multi(WeylKind("D", 3), 3)
    assert kernel_prob(ker, (-1, -2, 3), (2, 1, 3)) == R(1, 4)


def test_two_species_transition_probabilities():
    ker = build_cut_chain(WeylKind("Ccheck", 3), (2,))
    assert kernel_prob(ker, (1, 0, -1), (0, 1, -1)) == R(1, 4)
    ker = build_cut_chain(WeylKind("B", 3), (3,))
    assert kernel_prob(ker, (0, 1, 0), (0, 0, -1)) == R(1, 6)
    ker = build_cut_chain(WeylKind("B", 3), (2,))
    assert kernel_prob(ker, (0, 1, -1), (0, -1, 1)) == R(1, 6)
    ker = build_cut_chain(WeylKind("D", 3), (1,))
    assert kernel_prob(ker, (1, 1, 1), (1, -1, -1)) == R(1, 4)


def test_dstar_transition_probabilities():
    p = DStarParams(R(1, 3), R(1, 5), R(1, 7), R(1, 11))
    ker = build_dstar(3, 1, p)
    assert kernel_prob(ker, ("*", -1, 0), ("*", 1, 0)) == R(1, 2) * R(1, 3)
    assert kernel_prob(ker, (0, -1, "*"), ("*", 0, "*")) == R(1, 2)
    assert kernel_prob(ker, (0, 1, "*"), (0, -1, "*")) == R(1, 2) * R(1, 7)  # sign drop at the star
    ker = build_dstar(4, 1, p)
    assert kernel_prob(ker, ("*", 1, 0, "*"), ("*", 0, 1, "*")) == R(1, 3)  # bulk swap
    assert kernel_prob(ker, ("*", 1, 0, "*"), ("*", 1, -1, 0)) == R(1, 3) * R(1, 11)


def test_dstar_frozen_at_two_sites():
    ker = build_dstar(2, 1, DStarParams(1, 1, 1, 1))
    for s in ker.states:
        assert kernel_prob(ker, s, s) == 1


def test_rows_sum_to_one():
    kernels = [
        build_multi(WeylKind("B", 3), 3),
        build_multi(WeylKind("D", 3), 3),
        build_cut_chain(WeylKind("D", 4), (3,)),
        build_dstar(4, 1, DStarParams(R(1, 2), R(1, 3), R(1, 5), R(1, 7))),
        build_semipermeable(3, 1, R(2, 3), R(3, 5)),
    ]
    for ker in kernels:
        for row in ker.rows:
            assert sum(row.values()) == ker.den


@pytest.mark.parametrize("family,n", [("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4)])
def test_highest_root_edge_matches_raising(family, n):
    # the last edge moves exactly at states raised by the highest-root
    # generator and lands at states that are not raised
    kind = WeylKind(family, n)
    wk = kac_weights(kind)
    p_edge = R(wk.weights[n], wk.total)
    pats = theta_move_patterns(n)
    kernel = build_multi(kind, n)
    for w in kernel.states:
        has_move = (w[-2], w[-1]) in pats
        assert has_move == theta_raises(w, kind)
        if has_move:
            target = w[:-2] + pats[(w[-2], w[-1])]
            assert not theta_raises(target, kind)
            ker_prob = kernel_prob(kernel, w, target)
            assert ker_prob >= p_edge
        if family == "D":
            first = first_move_patterns_d(n)
            # mirrored rule at the left end: dominant entry negative
            a, b = w[0], w[1]
            dominant = a if abs(a) > abs(b) else b
            assert ((a, b) in first) == (dominant < 0)


def test_pattern_tables_match_sign_rule():
    pats = theta_move_patterns(5)
    for (a, b), (c, d) in pats.items():
        assert (c, d) == (-b, -a)
        assert (a if abs(a) > abs(b) else b) > 0
    first = first_move_patterns_d(5)
    for (a, b), (c, d) in first.items():
        assert (c, d) == (-b, -a)
        assert (a if abs(a) > abs(b) else b) < 0


def _entries(ker):
    # rows with their insertion order: a zero-pairing "move" is a self-loop
    # and changes where the holding entry sits, though not its value
    return ker.states, [list(kernel_row(ker, s).items()) for s in ker.states]


def _table_two_species(family, n, n0):
    """The oracle's two-species kernel; for D at n0 = 0 its class of even words."""
    ker = table_two_species_kernel(family, n, n0)
    if family == "D" and n0 == 0:
        ker = ker.restrict([w for w in ker.states if sum(x < 0 for x in w) % 2 == 0])
    return ker


@pytest.mark.parametrize("family", ["Ccheck", "B", "D", "C", "Bcheck"])
def test_wall_rule_matches_pattern_tables(family):
    # the kernels built from the wall rule equal the ones read off the
    # literal pattern tables, state for state and row for row
    for n in range(1 if family in ("C", "Ccheck") else 2, 6):
        kind = WeylKind(family, n)
        assert _entries(build_multi(kind, n)) == _entries(table_multi_kernel(family, n)), n
        for n0 in range(n + 1):
            ker = build_cut_chain(kind, (n0 + 1,))
            assert _entries(ker) == _entries(_table_two_species(family, n, n0)), (n, n0)


def test_semipermeable_rule_matches_pattern_tables():
    rates = ((1, 1), (R(2, 3), R(3, 5)), (R(1, 7), 1), (R(3, 2), R(1, 2)))
    for n in range(1, 6):
        for n0 in range(n + 1):
            for alpha, beta in rates:
                ker = build_semipermeable(n, n0, alpha, beta)
                ref = table_semipermeable_kernel(n, n0, alpha, beta)
                assert _entries(ker) == _entries(ref), (n, n0, alpha, beta)


def test_dstar_tables_match_boundary_branches():
    # zero starred rates included: their moves drop out of the rows
    points = [
        DStarParams(1, 1, 1, 1),
        DStarParams(*(R(1, 2),) * 4),
        DStarParams(1, 0, 1, 0),
        DStarParams(1, 0, R(1, 2), R(1, 2)),
        DStarParams(R(2, 3), R(3, 7), R(1, 2), 0),
        DStarParams(R(1, 3), R(1, 5), R(2, 7), R(3, 11)),
    ]
    for n in range(2, 9):
        for n0 in range(n + 1):
            for params in points:
                ker = build_dstar(n, n0, params)
                assert _entries(ker) == _entries(branch_dstar_kernel(n, n0, params)), (n, n0)


def _multi_pairs():
    for family in FAMILIES:
        for n in range(1 if family in ("C", "Ccheck") else 2, 5):
            yield build_multi(WeylKind(family, n), n), table_multi_kernel(family, n)


def _two_species_pairs():
    for family in FAMILIES:
        for n in range(1 if family in ("C", "Ccheck") else 2, 5):
            for n0 in range(n + 1):
                ker = build_cut_chain(WeylKind(family, n), (n0 + 1,))
                yield ker, _table_two_species(family, n, n0)


def _dstar_pairs():
    points = (DStarParams(1, 1, 1, 1), DStarParams(1, 0, R(1, 2), R(1, 2)),
              DStarParams(R(1, 3), R(1, 5), R(2, 7), R(3, 11)))
    for n in range(2, 7):
        for n0 in range(n + 1):
            for params in points:
                yield build_dstar(n, n0, params), branch_dstar_kernel(n, n0, params)


def _semipermeable_pairs():
    for n in range(1, 5):
        for n0 in range(n + 1):
            for alpha, beta in ((1, 1), (R(2, 3), R(3, 5)), (R(3, 2), R(1, 2))):
                ker = build_semipermeable(n, n0, alpha, beta)
                yield ker, table_semipermeable_kernel(n, n0, alpha, beta)


def _tworow_pairs():
    for n in range(1, 8):
        for n0 in range(n + 1):
            for params in PARAM_POINTS:
                yield tworow.kernel(n, n0, params), tworow_kernel(n, n0, params)


@pytest.mark.parametrize(
    "pairs", [_multi_pairs, _two_species_pairs, _dstar_pairs, _semipermeable_pairs, _tworow_pairs],
    ids=["multi", "two-species", "dstar", "semipermeable", "tworow"],
)
def test_builders_match_fraction_kernel(pairs):
    # each builder's integer rows give the probabilities of the Fraction
    # assembly (tests/oracles.py: fraction_kernel), entry for entry
    for ker, ref in pairs():
        assert ker.states == ref.states
        for s in ker.states:
            assert kernel_row(ker, s) == kernel_row(ref, s), s
        assert all(sum(row.values()) == ker.den for row in ker.rows)


def test_oversized_rates_name_the_state():
    with pytest.raises(InvalidRates, match=r"state \(-1, -1\) carry 5/3"):
        build_semipermeable(2, 0, 5, 1)


def test_edge_probabilities_match_weights():
    # boundary/bulk selection probabilities per family, read off the tables
    for n in (3, 4, 5):
        kw = kac_weights(WeylKind("Ccheck", n))
        assert all(R(a, kw.total) == R(1, n + 1) for a in kw.weights)
        kw = kac_weights(WeylKind("B", n))
        probs = [R(a, kw.total) for a in kw.weights]
        assert probs[: n - 1] == [R(1, n)] * (n - 1)
        assert probs[n - 1 :] == [R(1, 2 * n)] * 2
        kw = kac_weights(WeylKind("D", n))
        probs = [R(a, kw.total) for a in kw.weights]
        assert probs[0] == probs[1] == probs[n - 1] == probs[n] == R(1, 2 * (n - 1))
        assert all(p == R(1, n - 1) for p in probs[2 : n - 1])


@pytest.mark.parametrize("family", ["Ccheck", "D"])
def test_reversal_invariance(family):
    # reversing the lattice and negating species is a kernel automorphism
    for n in range(3, 7):
        for n0 in (0, 1, 2):
            ker = build_cut_chain(WeylKind(family, n), (n0 + 1,))
            mirror = reversal_bijection
            if family == "D" and n0 == 0 and n % 2:
                # the zero-free D chain keeps the even words, which the reversal sends
                # to odd ones at odd n; negating the last letter as well (it swaps
                # edges n-1 and n, both of weight 1) brings them back
                mirror = lambda w: reversal_bijection(w[:-1] + (-w[-1],))
            for s in ker.states:
                row = kernel_row(ker, s)
                mirrored = kernel_row(ker, mirror(s))
                assert {mirror(t): p for t, p in row.items()} == mirrored


def test_invalid_counts():
    for cuts in ((6,), (5,), (0, 2), (2, 2), (3, 2), ()):
        with pytest.raises(InvalidCounts, match="cuts must rise strictly within 1..4"):
            build_cut_chain(WeylKind("B", 3), cuts)
    with pytest.raises(InvalidCounts):
        DStarParams(0, 1, 1, 1)
